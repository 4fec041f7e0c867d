package repro.walks

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, Instance}

/** t-step reverse random walks (Direct Generation, §V-A), each run to
  * completion by [[GraphOps.reverseWalk]].
  *
  * A walk currently at `v` terminates there with probability `d_qv`
  * (stubbornness of the *seedless* profile — Post-Generation Truncation,
  * Thm 9, re-weights for any later seed set), otherwise moves to an
  * in-neighbor `u` with probability `w_uv` (well-defined because `W_q` is
  * column-stochastic). The walk also ends after `t` steps. The full visited
  * path is retained so any seed set can truncate the walk afterwards: the
  * walk's estimate for seed set `S` is 1 if its path intersects `S`
  * (truncation ends on a seed, whose initial opinion is 1), otherwise the
  * target's initial opinion of the end node.
  *
  * Walk schema: `(wid, start, path: Array[Long], end)`; walk `wid` draws
  * from `GraphOps.draws(seed, wid)`.
  */
object WalkGen {

  /** Generate one walk per row of `starts` (`(wid, start)`), horizon `t`.
    *
    * Walks at a node whose only in-edge is the normalization self-loop are
    * ended immediately — such a node's opinion never changes (§II-A).
    */
  def generate(spark: SparkSession, edges: DataFrame, targetStubbornness: DataFrame,
               starts: DataFrame, t: Int, seed: Long): DataFrame = {
    val csr = GraphOps.inCsr(edges)
    val d = new Array[Double](csr.off.length - 1)
    targetStubbornness.select(col("node").cast("int"), col("d").cast("double")).collect()
      .foreach(r => d(r.getInt(0)) = r.getDouble(1))
    generate(csr, d, starts, t, seed)
  }

  /** [[generate]] over the in-edges `csr` with stubbornness `d(v)` at node `v`. */
  def generate(csr: GraphOps.InCsr, d: Array[Double], starts: DataFrame, t: Int, seed: Long): DataFrame = {
    import starts.sparkSession.implicits._
    GraphOps.perRoot((csr, d), starts.select(col("wid").cast("long"), col("start").cast("long")),
      "wid", "start", "path", "end") { case ((csr, d), r) =>
      val path = GraphOps.reverseWalk(csr, r.getLong(1).toInt, t, d(_), GraphOps.draws(seed, r.getLong(0)),
        simple = false)
      Iterator((r.getLong(0), r.getLong(1), path.map(_.toLong), path.last.toLong))
    }
  }

  /** RW starts: `lambda(v)` walk rows per node `v`. `lambdas` is
    * `(node, lam)`, each `lam >= 1`; walk `rep` of node `v` has id
    * `v · 2^32 + rep`.
    */
  def startsPerNode(spark: SparkSession, lambdas: DataFrame): DataFrame = {
    val lam = when(col("lam") >= 1, col("lam").cast("int")).otherwise(raise_error(
      concat(lit("walk count lam must be >= 1, got "), col("lam"), lit(" for node "), col("node"))))
    lambdas
      .select(col("node").cast("long").as("start"), explode(sequence(lit(1), lam)).as("rep"))
      .select((shiftleft(col("start"), 32) + col("rep")).as("wid"), col("start"))
  }

  /** RW starts with a uniform walk count per node. */
  def uniformStarts(spark: SparkSession, n: Long, lambda: Int): DataFrame = {
    require(lambda >= 1, s"walk count lambda must be >= 1, got $lambda")
    startsPerNode(spark, spark.range(n).select(col("id").as("node"), lit(lambda).as("lam")))
  }

  /** RS starts (Alg 5): `theta` start nodes sampled uniformly at random with
    * replacement; each sample is one observation with a single walk.
    */
  def sketchStarts(spark: SparkSession, n: Long, theta: Long, seed: Long): DataFrame =
    GraphOps.uniformNodes(spark, n, theta, seed).toDF("wid", "start")

  /** Annotate generated walks with the target candidate's initial opinion of
    * each walk's end node, read from the instance's dense profile, producing
    * the greedy working set `(wid, obs, start, path, b0end, covered=false)`
    * in one job.
    *
    * @param obsIsWalk RS keys observations by walk id (λ=1 per sample);
    *                  RW keys them by start node (λ_v walks averaged).
    */
  def annotate(walks: DataFrame, inst: Instance, obsIsWalk: Boolean): DataFrame = {
    import walks.sparkSession.implicits._
    GraphOps.perRoot(inst.targetDense(Nil)._1, walks.select("wid", "start", "path", "end"),
      "wid", "obs", "start", "path", "b0end", "covered") { (b0, r) =>
      Iterator((r.getLong(0), r.getLong(if (obsIsWalk) 0 else 1), r.getLong(1), r.getSeq[Long](2),
        b0(r.getLong(3).toInt), false))
    }
  }
}
