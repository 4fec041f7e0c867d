package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Graph substrate for the paper's opinion-diffusion algorithms.
  *
  * A social graph is an edge DataFrame `(src: Long, dst: Long, w: Double)`
  * over node ids `0 until n`. The influence matrix `W` of the paper is
  * column-stochastic: for every node `v`, the weights of its *incoming*
  * edges sum to 1 (`sum_u w(u,v) = 1`). Nodes with no in-neighbors retain
  * their initial opinions (§II-A); we realize that uniformly by giving such
  * nodes a self-loop of weight 1 during normalization, so the FJ update is
  * the same formula for every node.
  */
object GraphOps {

  /** Normalize raw weighted edges to a column-stochastic matrix and add a
    * weight-1 self-loop for every node with no in-edges. Parallel edges are
    * combined by summing their raw weights. Non-positive weights are dropped.
    */
  def normalize(spark: SparkSession, rawEdges: DataFrame, n: Long): DataFrame = {
    val edges = rawEdges
      .filter(col("w") > 0)
      .groupBy("src", "dst").agg(sum("w").as("w"))
    val inSum = edges.groupBy(col("dst")).agg(sum("w").as("insum"))
    val normalized = edges.join(inSum, "dst")
      .select(col("src"), col("dst"), (col("w") / col("insum")).as("w"))
    val nodes = spark.range(n).toDF("id")
    val sources = nodes.join(edges.select(col("dst").as("id")).distinct(), Seq("id"), "left_anti")
    val selfLoops = sources.select(col("id").as("src"), col("id").as("dst"), lit(1.0).as("w"))
    normalized.unionByName(selfLoops)
  }

  /** True iff incoming weights of every node sum to 1 (within `tol`). */
  def isColumnStochastic(edges: DataFrame, n: Long, tol: Double = 1e-9): Boolean = {
    val bad = edges.groupBy("dst").agg(sum("w").as("s"))
      .filter(abs(col("s") - 1.0) > tol).count()
    val covered = edges.select("dst").distinct().count()
    bad == 0 && covered == n
  }

  /** Edge CDF for sampling one in-neighbor of each node proportionally to
    * its weight: per destination node, in-edges get disjoint intervals
    * `[lo, hi)` that tile `[0, 1)`. A uniform draw `r` selects the unique
    * edge with `lo <= r < hi`.
    */
  def inEdgeCdf(edges: DataFrame): DataFrame = {
    val w = Window.partitionBy("dst").orderBy("src")
    edges.select(
      col("src"), col("dst"), col("w"),
      (sum("w").over(w) - col("w")).as("lo"),
      sum("w").over(w).as("hi"),
    )
  }

  /** Nodes within at most `t` outgoing hops of each node: rows
    * `(root, node)` with `root` reaching `node` in <= t hops (self included
    * at hop 0). This is the per-seed reachable-users set `N_{{s}}^{(t)}`
    * (Def 2) for every possible seed `s` at once. Self-loops added by
    * [[normalize]] are harmless (they only re-reach the same node).
    */
  def reachWithin(spark: SparkSession, edges: DataFrame, n: Long, t: Int): DataFrame =
    expand(spark.range(n).select(col("id").as("root"), col("id").as("node")), Seq("root", "node"), t) {
      (frontier, _) =>
        frontier.join(edges, frontier("node") === edges("src"))
          .select(col("root"), col("dst").as("node"))
          .distinct()
    }

  /** Bounded frontier expansion: starting from the rows `start`, each of at
    * most `depth` steps maps the current frontier with `step(frontier, d)`
    * (`d` = 1, 2, …) and keeps the rows not reached before, compared on the
    * `key` columns. Returns every reached row. Each frontier is checkpointed
    * eagerly, which cuts lineage and freezes any randomness `step` draws;
    * the loop stops early once a frontier is empty.
    */
  def expand(start: DataFrame, key: Seq[String], depth: Int)
            (step: (DataFrame, Int) => DataFrame): DataFrame = {
    var reached = start
    var frontier = start
    for (d <- 1 to depth) {
      frontier = step(frontier, d).join(reached, key, "left_anti").localCheckpoint(true)
      if (frontier.isEmpty) return reached
      reached = reached.unionByName(frontier).localCheckpoint(true)
    }
    reached
  }

  /** Greedy maximum coverage over `pairs` `(set, elem)`, whose two columns
    * are a set id in `0 until n` and an element it covers: `k` picks, each
    * the set covering the most elements not yet covered, ties to the smaller
    * id. Once every element is covered, the smallest unpicked id is picked.
    * Returns each pick with its new coverage (the number of elements it
    * covers first). Coverage is submodular, so greedy is
    * (1-1/e)-approximate.
    */
  def maxCoverage(pairs: DataFrame, k: Int, n: Long): Seq[(Long, Long)] = {
    require(k >= 1 && k <= n, s"k=$k out of range [1, $n]")
    var remaining = pairs.toDF("set", "elem").localCheckpoint(true)
    var picks = Vector.empty[(Long, Long)]
    for (i <- 1 to k) {
      val top = remaining.groupBy("set").agg(count(lit(1)).as("c"))
        .orderBy(col("c").desc, col("set")).limit(1).collect()
      val pick = top.headOption match {
        case Some(r) => (r.getLong(0), r.getLong(1))
        case None => ((0L until n).find(v => !picks.exists(_._1 == v)).get, 0L) // all covered
      }
      picks :+= pick
      if (i < k) {
        val covered = remaining.filter(col("set") === pick._1).select("elem").distinct()
        remaining = remaining.join(covered, Seq("elem"), "left_anti").localCheckpoint(true)
      }
    }
    picks
  }

  /** Weighted out-degree per node: rows `(node, outdeg)`; nodes with no
    * out-edges get 0. Self-loops introduced by normalization are excluded
    * (they carry no social influence).
    */
  def weightedOutDegree(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val deg = edges.filter(col("src") =!= col("dst"))
      .groupBy(col("src").as("node")).agg(sum("w").as("outdeg"))
    spark.range(n).toDF("node").join(deg, Seq("node"), "left")
      .select(col("node"), coalesce(col("outdeg"), lit(0.0)).as("outdeg"))
  }
}
