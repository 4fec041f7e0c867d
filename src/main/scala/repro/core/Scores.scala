package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The five voting-based scores of §II-B.
  *
  * Every score is computed from horizon-`t` opinions, as a sum of per-voter
  * [[VoteScore.terms]] into part totals followed by one [[VoteScore.finish]].
  * `byScenario` evaluates it per greedy scenario given scenario-vectorized
  * target opinions `(scen, node, b)` and exact competitor opinions
  * `(node, cand, b)` (restricted to `cand != target` by the caller);
  * `exact` is its one-scenario case. The walk estimators of RW and RS
  * (`repro.walks.WalkGreedy`) sum the same terms over observations.
  */
sealed trait VoteScore extends Serializable {
  def name: String

  /** Additive per-voter terms `(voter…, part, v)` of target opinions
    * `target` `(voter…, node, b)` against competitor opinions `comp`
    * `(node, cand, b)`; `voter` names the columns that identify one voter.
    * The score is [[finish]] of the per-`part` sums of `v`. `comp` is only
    * evaluated by scores that rank the target.
    */
  def terms(target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame

  /** The score given the per-part sums of [[terms]]. */
  def finish(partTotals: Iterable[Double]): Double = partTotals.sum

  /** Score of each scenario, ascending by scenario: the terms summed per
    * `(scen, part)`, then [[finish]] per scenario.
    */
  private[core] def scenarioScores(targetOps: DataFrame, compOps: DataFrame): Seq[(Long, Double)] =
    terms(targetOps, compOps, Seq("scen", "node"))
      .groupBy("scen", "part").agg(sum("v")).collect()
      .groupBy(_.getLong(0)).toSeq.sortBy(_._1)
      .map { case (scen, rows) => (scen, finish(rows.map(_.getDouble(2)))) }

  /** [[scenarioScores]] as a local DataFrame `(scen, score)`. */
  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame = {
    val spark = targetOps.sparkSession
    import spark.implicits._
    scenarioScores(targetOps, compOps).toDF("scen", "score")
  }

  /** Score of candidate `cand` in the opinions `(node, cand, b)`: the
    * candidate's own opinions are scored as one scenario.
    */
  def exact(ops: DataFrame, cand: Int): Double =
    scenarioScores(ops.filter(col("cand") === cand).select(lit(0L).as("scen"), col("node"), col("b")),
      ops.filter(col("cand") =!= cand))
      .headOption.fold(0.0)(_._2)
}

object VoteScore {
  /** Pairs each user's target opinion with their opinion of every
    * competitor: `target` `(…, node, b)` joined on `node` to `comp`
    * `(node, cand, b)` gives one row `(…, node, b, x, bx)` per competitor `x`.
    */
  private[repro] def versus(target: DataFrame, comp: DataFrame): DataFrame =
    target.join(comp.select(col("node"), col("cand").as("x"), col("b").as("bx")), Seq("node"))

  /** Rank `beta` of the target over one user's [[versus]] rows: 1 + number
    * of competitors whose opinion is >= the target's (§II-B) — `beta = 1`
    * means strictly top.
    */
  private[repro] def rank: Column = (sum(when(col("bx") >= col("b"), 1).otherwise(0)) + 1).as("beta")

  /** `voter…` columns followed by one part `0` and the term `v`. */
  private[core] def onePart(voter: Seq[String], v: Column): Seq[Column] =
    voter.map(col) ++ Seq(lit(0).as("part"), v.as("v"))

  /** All-ones weights used by plurality / p-approval. */
  private[repro] def onesWeights(r: Int): Seq[Double] = Seq.fill(r)(1.0)
}

/** Cumulative score (Eq 3): sum of all users' opinions about the candidate. */
case object Cumulative extends VoteScore {
  val name = "cumulative"

  def terms(target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame =
    target.select(VoteScore.onePart(voter, col("b")): _*)
}

/** Positional-p-approval score (Eq 6); plurality (Eq 4) and p-approval
  * (Eq 5) are the all-ones-weight special cases below. A voter's term is
  * `w[beta] * 1[beta <= p]` for the target's rank `beta`.
  */
final case class PositionalPApproval(p: Int, weights: Seq[Double]) extends VoteScore {
  require(p >= 1, s"p must be >= 1, got $p")
  require(weights.nonEmpty && weights.forall(w => w >= 0 && w <= 1),
    "position weights must lie in [0,1]")
  require(weights.zip(weights.tail).forall { case (a, b) => b <= a },
    "position weights must be non-increasing")

  val name = s"positional-$p-approval"

  def terms(target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame = {
    val beta = col("beta")
    VoteScore.versus(target, comp)
      .groupBy(voter.map(col): _*).agg(VoteScore.rank)
      .select(VoteScore.onePart(voter,
        when(beta <= p, element_at(array(weights.map(lit): _*), beta.cast("int"))).otherwise(lit(0.0))): _*)
  }
}

object Plurality {
  /** Plurality score (Eq 4) for an `r`-candidate election. */
  def apply(r: Int): PositionalPApproval = PositionalPApproval(1, VoteScore.onesWeights(r))
}

object PApproval {
  /** p-approval score (Eq 5) for an `r`-candidate election. */
  def apply(p: Int, r: Int): PositionalPApproval = PositionalPApproval(p, VoteScore.onesWeights(r))
}

/** Cumulative opinion restricted to a node subset, times a constant —
  * the sandwich lower-bound objective of Def 3:
  * `LB(S) = w[p] * sum_{v in favorable} b_qv[S]`. Submodular (Thm 5), so
  * the plain greedy is (1-1/e)-approximate for it.
  */
final case class RestrictedCumulative(nodes: DataFrame, factor: Double) extends VoteScore {
  val name = "restricted-cumulative"

  def terms(target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame =
    target.join(nodes, Seq("node")).select(VoteScore.onePart(voter, col("b")): _*)

  override def finish(partTotals: Iterable[Double]): Double = factor * partTotals.sum
}

/** Copeland score (Eq 7): number of one-on-one competitions the candidate
  * wins (strictly more users prefer it than prefer the opponent). Part `x`
  * sums each voter's `+1 / −1 / 0` for preferring the target to competitor
  * `x` or the reverse; the target wins against `x` when that margin is
  * positive.
  */
case object Copeland extends VoteScore {
  val name = "copeland"

  def terms(target: DataFrame, comp: => DataFrame, voter: Seq[String]): DataFrame =
    VoteScore.versus(target, comp).select(voter.map(col) ++ Seq(col("x").as("part"),
      when(col("b") > col("bx"), 1.0).when(col("b") < col("bx"), -1.0).otherwise(0.0).as("v")): _*)

  override def finish(partTotals: Iterable[Double]): Double = partTotals.count(_ > 0).toDouble
}
