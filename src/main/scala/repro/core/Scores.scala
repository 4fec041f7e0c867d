package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The five voting-based scores of §II-B.
  *
  * Every score is computed from horizon-`t` opinions. `byScenario`
  * evaluates it per greedy scenario given scenario-vectorized target
  * opinions `(scen, node, b)` and exact competitor opinions
  * `(node, cand, b)` (restricted to `cand != target` by the caller);
  * `exact` is its one-scenario case.
  */
sealed trait VoteScore extends Serializable {
  def name: String
  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame

  /** Score of candidate `cand` in the opinions `(node, cand, b)`: the
    * candidate's own opinions are passed to [[byScenario]] as one scenario.
    */
  def exact(ops: DataFrame, cand: Int): Double =
    byScenario(ops.filter(col("cand") === cand).select(lit(0L).as("scen"), col("node"), col("b")),
      ops.filter(col("cand") =!= cand))
      .collect().headOption.fold(0.0)(_.getDouble(1))
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

  /** Per-user contribution of a positional-p-approval score given the
    * user's rank column `beta` (1-based): `w[beta] * 1[beta <= p]`.
    */
  private[repro] def positionalContrib(beta: Column, p: Int, weights: Seq[Double]): Column = {
    val wArr = array(weights.map(lit): _*)
    when(beta <= p, element_at(wArr, beta.cast("int"))).otherwise(lit(0.0))
  }

  /** All-ones weights used by plurality / p-approval. */
  private[repro] def onesWeights(r: Int): Seq[Double] = Seq.fill(r)(1.0)
}

/** Cumulative score (Eq 3): sum of all users' opinions about the candidate. */
case object Cumulative extends VoteScore {
  val name = "cumulative"

  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame =
    targetOps.groupBy("scen").agg(sum("b").as("score"))
}

/** Positional-p-approval score (Eq 6); plurality (Eq 4) and p-approval
  * (Eq 5) are the all-ones-weight special cases below.
  */
final case class PositionalPApproval(p: Int, weights: Seq[Double]) extends VoteScore {
  require(p >= 1, s"p must be >= 1, got $p")
  require(weights.nonEmpty && weights.forall(w => w >= 0 && w <= 1),
    "position weights must lie in [0,1]")
  require(weights.zip(weights.tail).forall { case (a, b) => b <= a },
    "position weights must be non-increasing")

  val name = s"positional-$p-approval"

  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame =
    VoteScore.versus(targetOps, compOps)
      .groupBy("scen", "node").agg(VoteScore.rank)
      .groupBy("scen")
      .agg(sum(VoteScore.positionalContrib(col("beta"), p, weights)).as("score"))
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

  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame =
    targetOps.join(nodes, Seq("node"))
      .groupBy("scen").agg((sum("b") * factor).as("score"))
}

/** Copeland score (Eq 7): number of one-on-one competitions the candidate
  * wins (strictly more users prefer it than prefer the opponent).
  */
case object Copeland extends VoteScore {
  val name = "copeland"

  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame =
    VoteScore.versus(targetOps, compOps)
      .groupBy("scen", "x")
      .agg(sum(when(col("b") > col("bx"), 1).otherwise(0)).as("wins"),
           sum(when(col("b") < col("bx"), 1).otherwise(0)).as("losses"))
      .groupBy("scen")
      .agg(sum(when(col("wins") > col("losses"), 1.0).otherwise(0.0)).as("score"))
}
