package repro.baselines

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, Instance}

/** Classic-IM baseline ("IC"/"LT" + IMM in §VIII-A): reverse-reachable
  * (RR) set sampling and greedy maximum coverage.
  *
  * IC RR set: reverse BFS from a uniform root, where each in-edge `(u,v)`
  * is live independently with probability `w(u,v)`. LT RR set: from the
  * root, repeatedly pick exactly one in-neighbor with probability equal to
  * its (column-stochastic) weight — a reverse path. Both are capped at
  * `maxDepth` hops; we use the paper's horizon `t` so the baseline sees the
  * same diffusion window.
  *
  * IMM-lite substitution (documented in DESIGN.md): the sampling budget θ
  * is fixed by the caller instead of IMM's martingale stopping rule; seed
  * selection is the same greedy max-coverage, so the seeds are classic-IM
  * seeds as the paper intends for this baseline.
  */
object RRSets {

  /** θ uniform roots `(rr, node)`, a local DataFrame. */
  def sampleRoots(spark: SparkSession, n: Long, theta: Long, seed: Long): DataFrame =
    spark.createDataFrame(GraphOps.uniformNodes(n, theta, seed)).toDF("rr", "node")

  /** IC RR sets `(rr, node)` (roots included), a local DataFrame. */
  def sampleIC(spark: SparkSession, edges: DataFrame, roots: DataFrame,
               maxDepth: Int, seed: Long): DataFrame = sampleFrame("ic", edges, roots, maxDepth, seed)

  /** LT RR sets `(rr, node)`: reverse paths that end on an edge back to the
    * path, a self-loop included; a local DataFrame.
    */
  def sampleLT(spark: SparkSession, edges: DataFrame, roots: DataFrame,
               maxDepth: Int, seed: Long): DataFrame = sampleFrame("lt", edges, roots, maxDepth, seed)

  private def sampleFrame(model: String, edges: DataFrame, roots: DataFrame, maxDepth: Int, seed: Long): DataFrame = {
    import roots.sparkSession.implicits._
    val rows = roots.select(col("rr").cast("long"), col("node").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq
    sample(GraphOps.inCsr(edges), model, rows, maxDepth, seed).pairs.map(_.swap).toDF("rr", "node")
  }

  /** The RR set under `model` of each root `(rr, node)`, root first,
    * grown over the in-edges `csr` with the draws of `rr`, on the driver.
    */
  private[repro] def sample(csr: GraphOps.InCsr, model: String, roots: Seq[(Long, Long)],
                            maxDepth: Int, seed: Long): GraphOps.Packed = {
    val set: (Int, SplittableRandom) => Array[Int] = model match {
      case "ic" =>
        val bfs = new GraphOps.ReverseBfs(csr)
        (root, rng) => bfs(root, maxDepth)(e => rng.nextDouble() < csr.w(e))
      case "lt" => (root, rng) => GraphOps.reverseWalk(csr, root, maxDepth, _ => 0.0, rng, simple = true)
      case other => throw new IllegalArgumentException(s"unknown diffusion model: $other")
    }
    GraphOps.perRoot(roots)((rr, root) => set(root, GraphOps.draws(seed, rr)))
  }

  /** Greedy max coverage ([[GraphOps.maxCoverage]]): k nodes covering the
    * most RR sets.
    */
  def greedyCover(rrSets: DataFrame, k: Int, n: Long): Seq[Long] =
    GraphOps.maxCoverage(rrSets.select("node", "rr"), k, n).map(_._1)

  /** End-to-end baseline: sample θ RR sets under `model` from the roots
    * of [[sampleRoots]] and pick k seeds, all on the driver.
    */
  def select(inst: Instance, model: String, k: Int, theta: Long,
             seed: Long = 47): Seq[Long] = {
    val roots = GraphOps.uniformNodes(inst.n, theta, seed)
    GraphOps.maxCoverage(sample(inst.csr, model, roots, inst.t, seed + 1).pairs, k, inst.n).map(_._1)
  }
}
