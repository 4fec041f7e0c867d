package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** The five voting-based scores of §II-B.
  *
  * Every score is computed from horizon-`t` opinions, as a sum of per-voter
  * [[VoteScore.voterTerms]] into part totals followed by one
  * [[VoteScore.finish]]. A voter is one user, with an opinion of the target
  * and opinions of the competitors. Exact scores are summed on the driver,
  * voters in ascending node order, over the opinions the FJ kernels
  * collect: `exact` scores one candidate of an opinion table, `byScenario`
  * every scenario of scenario-vectorized target opinions `(scen, node, b)`
  * against exact competitor opinions `(node, cand, b)` (restricted to
  * `cand != target` by the caller). The walk estimators of RW and RS
  * (`repro.walks.WalkGreedy`) apply the same terms to their observations.
  */
sealed trait VoteScore extends Serializable {
  def name: String

  /** Whether a voter's terms depend on how the voter ranks the target, that
    * is, read the competitors' opinions. The cumulative scores' terms do
    * not, so their callers never compute those opinions.
    */
  def ranked: Boolean = true

  /** Additive terms `(part, v)` of one voter: user `node`, whose opinion of
    * the target is `b` and of the competitors `comp`, in ascending
    * candidate order (empty for a score that is not [[ranked]]). The score
    * is [[finish]] of the per-`part` sums of `v` over all voters.
    */
  def voterTerms(node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)]

  /** The score given the per-part sums of [[voterTerms]]. */
  def finish(partTotals: Iterable[Double]): Double = partTotals.sum

  /** [[finish]] of the part totals of voters `nodes` with target opinions
    * `b` and competitor opinions `comp`, summed in the given voter order.
    * `comp` is only evaluated by ranked scores.
    */
  private[repro] def total(nodes: Array[Long], b: Array[Double], comp: => Array[Array[Double]]): Double = {
    val c = if (ranked) comp else null
    val totals = mutable.TreeMap.empty[Int, Double]
    for (i <- nodes.indices; (part, v) <- voterTerms(nodes(i), b(i), if (c == null) Array.emptyDoubleArray else c(i)))
      totals(part) = totals.getOrElse(part, 0.0) + v
    finish(totals.values)
  }

  /** Score of candidate `cand` in node-major opinions `ops` (entry
    * `v * r + c`) of `r` candidates.
    */
  private[repro] def ofTable(ops: Array[Double], r: Int, cand: Int): Double = {
    val n = ops.length / r
    total(Array.tabulate(n)(_.toLong), Array.tabulate(n)(v => ops(v * r + cand)),
      Array.tabulate(n)(v => (0 until r).filter(_ != cand).map(x => ops(v * r + x)).toArray))
  }

  /** Score of each scenario, as a local DataFrame `(scen, score)` ascending
    * by scenario.
    */
  def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame = {
    val spark = targetOps.sparkSession
    import spark.implicits._
    lazy val comp = VoteScore.competitorsByNode(compOps)
    targetOps.select(col("scen").cast("long"), col("node").cast("long"), col("b").cast("double")).collect()
      .map(r => (r.getLong(0), (r.getLong(1), r.getDouble(2))))
      .groupBy(_._1).toSeq.sortBy(_._1)
      .map { case (scen, rows) => scen -> VoteScore.ofVoters(this, rows.map(_._2), comp) }
      .toDF("scen", "score")
  }

  /** Score of candidate `cand` in the opinions `(node, cand, b)`. */
  def exact(ops: DataFrame, cand: Int): Double = {
    val (target, others) = VoteScore.rows(ops).partition(_._2 == cand)
    VoteScore.ofVoters(this, target.map(r => (r._1, r._3)), VoteScore.byNode(others))
  }
}

object VoteScore {
  /** Rows `(node, cand, b)` of an opinion DataFrame, collected. */
  private def rows(ops: DataFrame): Array[(Long, Int, Double)] =
    ops.select(col("node").cast("long"), col("cand").cast("int"), col("b").cast("double")).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getDouble(2)))

  /** Each node's opinions in ascending candidate order. */
  private def byNode(rows: Array[(Long, Int, Double)]): Map[Long, Array[Double]] =
    rows.groupBy(_._1).map { case (v, rs) => v -> rs.sortBy(_._2).map(_._3) }

  /** Competitor opinions `(node, cand, b)`, collected: each node's opinions
    * in ascending candidate order.
    */
  private[repro] def competitorsByNode(compOps: DataFrame): Map[Long, Array[Double]] = byNode(rows(compOps))

  /** `score` of voters `(node, b)` in ascending node order, against the
    * competitor opinions `comp` of each node.
    */
  private def ofVoters(score: VoteScore, voters: Array[(Long, Double)], comp: => Map[Long, Array[Double]]): Double = {
    val sorted = voters.sortBy(_._1)
    lazy val byNode = comp
    score.total(sorted.map(_._1), sorted.map(_._2),
      sorted.map(v => byNode.getOrElse(v._1, Array.emptyDoubleArray)))
  }

  /** All-ones weights used by plurality / p-approval. */
  private[repro] def onesWeights(r: Int): Seq[Double] = Seq.fill(r)(1.0)
}

/** Cumulative score (Eq 3): sum of all users' opinions about the candidate. */
case object Cumulative extends VoteScore {
  val name = "cumulative"

  override def ranked: Boolean = false

  def voterTerms(node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)] = Seq((0, b))
}

/** Positional-p-approval score (Eq 6); plurality (Eq 4) and p-approval
  * (Eq 5) are the all-ones-weight special cases below. A voter's term is
  * `w[beta] * 1[beta <= p]` for the target's rank `beta`: 1 + the number of
  * competitors whose opinion is >= the target's, so `beta = 1` means
  * strictly top.
  */
final case class PositionalPApproval(p: Int, weights: Seq[Double]) extends VoteScore {
  require(p >= 1, s"p must be >= 1, got $p")
  require(weights.nonEmpty && weights.forall(w => w >= 0 && w <= 1),
    "position weights must lie in [0,1]")
  require(weights.zip(weights.tail).forall { case (a, b) => b <= a },
    "position weights must be non-increasing")

  val name = s"positional-$p-approval"

  private val w = weights.toArray

  def voterTerms(node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)] = {
    val beta = 1 + comp.count(_ >= b)
    Seq((0, if (beta <= p && beta <= w.length) w(beta - 1) else 0.0))
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
final case class RestrictedCumulative(members: Set[Long], factor: Double) extends VoteScore {
  val name = "restricted-cumulative"

  override def ranked: Boolean = false

  def voterTerms(node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)] =
    if (members(node)) Seq((0, b)) else Nil

  override def finish(partTotals: Iterable[Double]): Double = factor * partTotals.sum
}

/** Copeland score (Eq 7): number of one-on-one competitions the candidate
  * wins (strictly more users prefer it than prefer the opponent). Part `j`
  * is the `j`-th competitor: it sums each voter's `+1 / −1 / 0` for
  * preferring the target to that competitor or the reverse; the target
  * wins against it when that margin is positive.
  */
case object Copeland extends VoteScore {
  val name = "copeland"

  def voterTerms(node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)] =
    comp.indices.map(j => (j, if (b > comp(j)) 1.0 else if (b < comp(j)) -1.0 else 0.0))

  override def finish(partTotals: Iterable[Double]): Double = partTotals.count(_ > 0).toDouble
}
