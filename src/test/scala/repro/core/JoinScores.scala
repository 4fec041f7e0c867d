package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The DataFrame score algebra that per-voter score terms replaced, kept
  * as a test reference: each score's additive per-voter terms
  * `(voter…, part, v)` as DataFrame operations (the ranked scores join each
  * voter's target opinion to every competitor's and group per voter), then
  * one aggregation per `(scen, part)` and the score's own `finish`.
  */
object JoinScores {

  /** Additive per-voter terms `(voter…, part, v)` of `score` for target
    * opinions `target` `(voter…, node, b)` against competitor opinions
    * `comp` `(node, cand, b)`; `voter` names the columns that identify one
    * voter.
    */
  def terms(score: VoteScore, target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame =
    score match {
      case Cumulative =>
        target.select(onePart(voter, col("b")): _*)
      case PositionalPApproval(p, weights) =>
        val beta = col("beta")
        versus(target, comp)
          .groupBy(voter.map(col): _*).agg(rank)
          .select(onePart(voter,
            when(beta <= p, element_at(array(weights.map(lit): _*), beta.cast("int"))).otherwise(lit(0.0))): _*)
      case RestrictedCumulative(members, _) =>
        target.filter(col("node").isInCollection(members)).select(onePart(voter, col("b")): _*)
      case Copeland =>
        versus(target, comp).select(voter.map(col) ++ Seq(col("x").as("part"),
          when(col("b") > col("bx"), 1.0).when(col("b") < col("bx"), -1.0).otherwise(0.0).as("v")): _*)
    }

  /** Score of each scenario, ascending by scenario: the terms summed per
    * `(scen, part)`, then `finish` per scenario.
    */
  def scenarioScores(score: VoteScore, targetOps: DataFrame, compOps: DataFrame): Seq[(Long, Double)] =
    terms(score, targetOps, compOps, Seq("scen", "node"))
      .groupBy("scen", "part").agg(sum("v")).collect()
      .groupBy(_.getLong(0)).toSeq.sortBy(_._1)
      .map { case (scen, rows) => (scen, BoxedScores.finish(score, rows.map(_.getDouble(2)))) }

  /** Score of candidate `cand` in the opinions `(node, cand, b)`: the
    * candidate's own opinions are scored as one scenario.
    */
  def exact(score: VoteScore, ops: DataFrame, cand: Int): Double =
    scenarioScores(score, ops.filter(col("cand") === cand).select(lit(0L).as("scen"), col("node"), col("b")),
      ops.filter(col("cand") =!= cand))
      .headOption.fold(0.0)(_._2)

  /** Pairs each user's target opinion with their opinion of every
    * competitor: `target` `(…, node, b)` joined on `node` to `comp`
    * `(node, cand, b)` gives one row `(…, node, b, x, bx)` per competitor `x`.
    */
  def versus(target: DataFrame, comp: DataFrame): DataFrame =
    target.join(comp.select(col("node"), col("cand").as("x"), col("b").as("bx")), Seq("node"))

  /** Rank `beta` of the target over one user's [[versus]] rows: 1 + number
    * of competitors whose opinion is >= the target's (§II-B) — `beta = 1`
    * means strictly top.
    */
  def rank: Column = (sum(when(col("bx") >= col("b"), 1).otherwise(0)) + 1).as("beta")

  /** `voter…` columns followed by one part `0` and the term `v`. */
  private def onePart(voter: Seq[String], v: Column): Seq[Column] =
    voter.map(col) ++ Seq(lit(0).as("part"), v.as("v"))
}
