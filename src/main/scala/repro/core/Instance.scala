package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One FJ-Vote problem instance (Problem 1 inputs minus `k`):
  * normalized edges, per-candidate node profile `(node, cand, b0, d)`,
  * node count `n`, candidate count `r`, target candidate `q`, horizon `t`.
  *
  * The profile (of `n` nodes, `r` candidates) is collected and checked
  * once, on first use, into dense arrays, and the edges into the in-edge CSR
  * [[csr]], which every diffusion, walk, RR set and reach reads; seeded
  * diffusions pin their seeds on those arrays and diffuse the target alone,
  * since diffusion is independent per candidate (§II-A) and `q`'s seeds
  * leave the competitors' opinions at the seedless horizon. Diffusions and
  * scores run on the driver, with no Spark job. A copy of the instance
  * collects and diffuses its own.
  */
final case class Instance(edges: DataFrame, profile: DataFrame,
                          n: Long, r: Int, q: Int, t: Int) {
  require(r > 1, s"the paper assumes r > 1 candidates, got $r")
  require(q >= 0 && q < r, s"target candidate $q out of range [0,$r)")

  private lazy val dense = {
    val p = OpinionDiffusion.Dense(profile)
    require(p.n == n && p.k == r,
      s"the profile has ${p.n} nodes and ${p.k} candidates, but the instance has n = $n and r = $r")
    p
  }

  /** The in-edges of `edges`, collected once, on first use. */
  private[repro] lazy val csr: GraphOps.InCsr = GraphOps.inCsr(edges)

  /** The seedless horizon: exact opinions of every candidate at `t` with no
    * seeds, node-major (entry `v * r + c`), diffused once, on first use.
    */
  private lazy val horizon: Array[Double] = OpinionDiffusion.advance(csr, dense.b0, dense.d, dense.k, t)

  /** [[horizon]] as a local DataFrame `(node, cand, b)`. */
  private lazy val horizonFrame: DataFrame = OpinionDiffusion.frame(edges.sparkSession, horizon, dense.k)

  /** Competitor opinions at the horizon: for each node, its opinions of the
    * candidates other than `q`, in ascending candidate order.
    */
  private[repro] lazy val competitors: Array[Array[Double]] =
    Array.tabulate(dense.n)(v => (0 until dense.k).filter(_ != q).map(c => horizon(v * dense.k + c)).toArray)

  /** The target's opinions at the horizon with `seeds`, one per node. */
  private[repro] def targetOpinions(seeds: Seq[Long]): Array[Double] =
    if (seeds.isEmpty) column(horizon, dense.k, q)
    else targetColumns(Seq(seeds))(identity).head

  /** `of` the target's opinions at the horizon with each of `seedSets`, one
    * per node, diffused as the columns of one call: each column is the
    * seedless `b0` and `d` with its own seeds pinned.
    */
  private def targetColumns[A](seedSets: Seq[Seq[Long]])(of: Array[Double] => A): Seq[A] = {
    val k = seedSets.length
    val (b0, d) = (column(dense.b0, dense.k, q, k), column(dense.d, dense.k, q, k))
    for ((seeds, j) <- seedSets.zipWithIndex) pin(seeds) { s => b0(s * k + j) = 1.0; d(s * k + j) = 1.0 }
    val b = OpinionDiffusion.advance(csr, b0, d, k, t)
    (0 until k).map(j => of(column(b, k, j)))
  }

  /** Column `c` of the node-major `ops` of `k` columns, `copies` times: entry `v * copies + j` is `ops(v * k + c)`. */
  private def column(ops: Array[Double], k: Int, c: Int, copies: Int = 1): Array[Double] = {
    val out = new Array[Double](ops.length / k * copies)
    for (i <- out.indices) out(i) = ops(i / copies * k + c)
    out
  }

  /** The target's `b0` and `d`, one per node, with `seeds` pinned to 1. */
  private[repro] def targetDense(seeds: Seq[Long]): (Array[Double], Array[Double]) = {
    val (b0, d) = (column(dense.b0, dense.k, q), column(dense.d, dense.k, q))
    pin(seeds) { s => b0(s) = 1.0; d(s) = 1.0 }
    (b0, d)
  }

  /** Runs `set` on each of `seeds`, rejecting any outside `0 until n`: every seeded entry point pins here. */
  private def pin(seeds: Seq[Long])(set: Int => Unit): Unit =
    seeds.foreach { s => require(s >= 0 && s < n, s"seed $s out of range [0, $n)"); set(s.toInt) }

  /** Node-major opinions of every candidate at the horizon with `seeds`
    * for `q`.
    */
  private def table(seeds: Seq[Long]): Array[Double] =
    if (seeds.isEmpty) horizon else withTarget(targetOpinions(seeds))

  /** The seedless horizon with the target's opinions replaced by `b`. */
  private def withTarget(b: Array[Double]): Array[Double] = {
    val ops = horizon.clone()
    b.indices.foreach(v => ops(v * dense.k + q) = b(v))
    ops
  }

  /** `score` of the target opinions `b` (one per node) against the
    * competitors' horizon opinions.
    */
  private[repro] def targetScoreOf(score: VoteScore, b: Array[Double]): Double =
    score.total(b.length, r)(_.toLong, b(_), competitors(_))

  /** Exact horizon-`t` opinions `(node, cand, b)` of every candidate with
    * `seeds` for `q`, as a local DataFrame.
    */
  def opinions(seeds: Seq[Long] = Nil): DataFrame =
    if (seeds.isEmpty) horizonFrame else OpinionDiffusion.frame(edges.sparkSession, table(seeds), dense.k)

  /** Exact competitor opinions at the horizon; `q`'s seeds do not change
    * them, since diffusion is independent per candidate (§II-A).
    */
  def competitorOpinions(): DataFrame = horizonFrame.filter(col("cand") =!= q)

  /** Target candidate's profile `(node, b0, d)` with `seeds` applied, a local DataFrame. */
  def targetProfile(seeds: Seq[Long]): DataFrame = {
    import edges.sparkSession.implicits._
    val (b0, d) = targetDense(seeds)
    b0.indices.map(v => (v.toLong, b0(v), d(v))).toDF("node", "b0", "d")
  }

  /** Exact target score at the horizon given `seeds`. */
  def targetScore(score: VoteScore, seeds: Seq[Long]): Double = targetScoreOf(score, targetOpinions(seeds))

  /** [[targetScore]] of each of `seedSets`, diffused together in one call. */
  def targetScores(score: VoteScore, seedSets: Seq[Seq[Long]]): Seq[Double] =
    targetColumns(seedSets)(targetScoreOf(score, _))

  /** Problem 2 winning test: target's score strictly exceeds every
    * competitor's score at the horizon (Eq 9). Every candidate is scored
    * from one opinion table.
    */
  def wins(score: VoteScore, seeds: Seq[Long]): Boolean = beats(score, table(seeds))

  /** [[wins]] with each of `seedSets`, diffused together in one call. */
  private[repro] def winsEach(score: VoteScore, seedSets: Seq[Seq[Long]]): Seq[Boolean] =
    targetColumns(seedSets)(b => beats(score, withTarget(b)))

  /** Whether `q` scores strictly highest in the node-major opinions `ops`. */
  private def beats(score: VoteScore, ops: Array[Double]): Boolean = {
    val tgt = score.ofTable(ops, dense.k, q)
    (0 until dense.k).filter(_ != q).forall(c => tgt > score.ofTable(ops, dense.k, c))
  }
}
