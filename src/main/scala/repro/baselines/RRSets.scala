package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
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

  /** θ uniform roots `(rr, node)`. */
  def sampleRoots(spark: SparkSession, n: Long, theta: Long, seed: Long): DataFrame =
    spark.range(theta).select(
      col("id").as("rr"),
      (rand(seed) * n).cast(LongType).as("node"),
    ).localCheckpoint(true)

  /** IC RR sets `(rr, node)` (roots included). */
  def sampleIC(spark: SparkSession, edges: DataFrame, roots: DataFrame,
               maxDepth: Int, seed: Long): DataFrame = {
    val real = edges.filter(col("src") =!= col("dst")).localCheckpoint(true)
    GraphOps.expand(roots, Seq("rr", "node"), maxDepth) { (frontier, depth) =>
      frontier.join(real, frontier("node") === real("dst"))
        .filter(rand(seed * 131 + depth) < col("w"))
        .select(col("rr"), col("src").as("node")).distinct()
    }
  }

  /** LT RR sets `(rr, node)`: reverse paths, one in-neighbor per step. */
  def sampleLT(spark: SparkSession, edges: DataFrame, roots: DataFrame,
               maxDepth: Int, seed: Long): DataFrame = {
    val cdf = GraphOps.inEdgeCdf(edges).localCheckpoint(true)
    GraphOps.expand(roots, Seq("rr", "node"), maxDepth) { (frontier, depth) =>
      val r = rand(seed * 137 + depth)
      frontier.withColumn("r", r)
        .join(cdf, frontier("node") === cdf("dst") &&
                   col("r") >= cdf("lo") && col("r") < cdf("hi"))
        .filter(cdf("src") =!= frontier("node")) // full-weight self-loop = stop
        .select(col("rr"), cdf("src").as("node"))
    }
  }

  /** Greedy max coverage ([[GraphOps.maxCoverage]]): k nodes covering the
    * most RR sets.
    */
  def greedyCover(rrSets: DataFrame, k: Int, n: Long): Seq[Long] =
    GraphOps.maxCoverage(rrSets.select("node", "rr"), k, n).map(_._1)

  /** End-to-end baseline: sample θ RR sets under `model` and pick k seeds. */
  def select(inst: Instance, model: String, k: Int, theta: Long,
             seed: Long = 47): Seq[Long] = {
    val spark = inst.edges.sparkSession
    val roots = sampleRoots(spark, inst.n, theta, seed)
    val rr = model match {
      case "ic" => sampleIC(spark, inst.edges, roots, inst.t, seed + 1)
      case "lt" => sampleLT(spark, inst.edges, roots, inst.t, seed + 1)
      case other => throw new IllegalArgumentException(s"unknown diffusion model: $other")
    }
    greedyCover(rr, k, inst.n)
  }
}
