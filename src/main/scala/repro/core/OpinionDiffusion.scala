package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.math.Ordering.Double.TotalOrdering

/** Exact opinion diffusion under the Friedkin–Johnsen model (Eq 2 of the
  * paper); DeGroot (Eq 1) is the special case of all-zero stubbornness.
  *
  * Both kernels advance `k` opinion vectors over the `n` nodes together:
  * one per candidate in [[diffuse]], one per candidate seed in
  * [[diffuseScenarios]]. The edges stay distributed: each call groups the
  * in-edges by `dst` once and caches them. Each FJ timestep broadcasts the
  * current `n × k` opinions and runs one narrow job that returns every
  * node's weighted in-neighbour sums `wsum`; the driver then applies
  * `b = (1 − d)·wsum + d·b0`. A node sums its in-edges in ascending `src`
  * order, so results do not depend on partitioning. The result is a local
  * DataFrame with no lineage. [[Instance]] collects its profile once
  * ([[Dense]]) and calls the step loop on those arrays directly.
  *
  * Seeding a node `s` for candidate `q` sets `b0 = 1` and `d = 1` for
  * `(s, q)` (§II-C), freezing its opinion about `q` at 1.
  *
  * Edges must be normalized ([[GraphOps.normalize]]): every node has an
  * in-edge and its in-edge weights sum to 1. A profile must hold exactly
  * one row per node (and candidate), with node ids `0 until n` (and
  * candidates `0 until r`) and `b0`, `d` in [0, 1]; the kernels reject any
  * other with an `IllegalArgumentException`.
  */
object OpinionDiffusion {

  /** Profile `(node, cand, b0, d)` with seed set `seeds` applied for
    * candidate `q`: seeded rows get `b0 = 1, d = 1`.
    */
  def applySeeds(profile: DataFrame, q: Int, seeds: Seq[Long]): DataFrame = {
    if (seeds.isEmpty) profile
    else {
      val isSeed = col("cand") === q && col("node").isInCollection(seeds)
      profile.select(
        col("node"), col("cand"),
        when(isSeed, lit(1.0)).otherwise(col("b0")).as("b0"),
        when(isSeed, lit(1.0)).otherwise(col("d")).as("d"),
      )
    }
  }

  /** Exact opinions `(node, cand, b)` of every user about every candidate at
    * horizon `t`, given normalized edges and profile `(node, cand, b0, d)`.
    */
  def diffuse(edges: DataFrame, profile: DataFrame, t: Int): DataFrame = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    val p = Dense(profile)
    frame(edges.sparkSession, advance(edges, p.b0, p.d, p.k, t), p.k)
  }

  /** Scenario-vectorized diffusion for greedy marginal-gain evaluation:
    * each scenario is "add candidate seed `scen` on top of the already
    * applied base profile". All scenarios advance together, one opinion
    * vector each, instead of one diffusion per candidate seed. A scenario
    * id outside `0 until n` pins no node: its rows are the base profile's
    * own opinions, from which greedy reads `F(S)` in the same batch.
    *
    * @param targetProfile `(node, b0, d)` for the target candidate only,
    *                      with the current seed set already applied
    * @param scenarios     single-column `(scen)` of candidate seed nodes
    * @return `(scen, node, b)` target-candidate opinions at horizon `t`
    */
  def diffuseScenarios(edges: DataFrame, targetProfile: DataFrame,
                       scenarios: DataFrame, t: Int): DataFrame = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    val rows = targetProfile.select(col("node").cast("long"),
        col("b0").cast("double"), col("d").cast("double")).collect()
      .map(r => (r.getLong(0), 0, r.getDouble(1), r.getDouble(2)))
    val p = dense(rows, 1, (v, _) => s"(node=$v)")
    val scen = scenarios.select(col("scen").cast("long")).collect().map(_.getLong(0))
    val b = scenarioOpinions(edges, p.b0, p.d, scen, t)
    val spark = edges.sparkSession
    import spark.implicits._
    (for (v <- 0 until p.n; j <- scen.indices) yield (scen(j), v.toLong, b(v * scen.length + j)))
      .toDF("scen", "node", "b")
  }

  /** [[diffuseScenarios]] on the target's dense profile `b0`, `d` (one entry
    * per node): node-major opinions, entry `v * scen.length + j` for
    * scenario `j`.
    */
  private[core] def scenarioOpinions(edges: DataFrame, b0: Array[Double], d: Array[Double],
                                     scen: Array[Long], t: Int): Array[Double] = {
    val k = scen.length
    // Scenario j pins its own node: b0 = d = 1 there.
    def pinned(base: Array[Double])(i: Int): Double =
      if (scen(i % k) == i / k) 1.0 else base(i / k)
    advance(edges, Array.tabulate(b0.length * k)(pinned(b0)), Array.tabulate(b0.length * k)(pinned(d)), k, t)
  }

  /** A checked profile on the driver: node-major `b0` and `d` (entry
    * `v * k + c`) of `n` nodes and `k` candidates.
    */
  private[core] final case class Dense(n: Int, k: Int, b0: Array[Double], d: Array[Double])

  private[core] object Dense {
    /** Profile `(node, cand, b0, d)` collected and checked, with `k` one
      * more than its largest candidate.
      */
    def apply(profile: DataFrame): Dense = {
      val rows = profile.select(col("node").cast("long"), col("cand").cast("int"),
          col("b0").cast("double"), col("d").cast("double")).collect()
        .map(r => (r.getLong(0), r.getInt(1), r.getDouble(2), r.getDouble(3)))
      dense(rows, rows.map(_._2).maxOption.fold(0)(_ + 1), (v, c) => s"(node=$v, cand=$c)")
    }
  }

  /** Local DataFrame `(node, cand, b)` of node-major opinions with `k`
    * candidates per node.
    */
  private[core] def frame(spark: SparkSession, b: Array[Double], k: Int): DataFrame = {
    import spark.implicits._
    (for (v <- 0 until b.length / k; c <- 0 until k) yield (v.toLong, c, b(v * k + c))).toDF("node", "cand", "b")
  }

  /** Node-major `b0` and `d` arrays (entry `v * k + c`) from profile rows
    * `(node, c, b0, d)`. Every `(node, c)` in `0 until n` × `0 until k` must
    * appear exactly once, with `b0` and `d` in [0, 1]; `label` names a row
    * in the error.
    */
  private def dense(rows: Array[(Long, Int, Double, Double)], k: Int,
                    label: (Long, Int) => String): Dense = {
    require(rows.nonEmpty, "empty profile")
    rows.foreach { case (v, c, b0, d) =>
      require(v >= 0 && v < Int.MaxValue && c >= 0 && c < k, s"profile row ${label(v, c)} is out of range")
      require(b0 >= 0 && b0 <= 1 && d >= 0 && d <= 1,
        s"profile row ${label(v, c)} has b0=$b0, d=$d outside [0, 1]")
    }
    // The sorted keys of a complete profile are exactly 0 until n·k.
    val keys = rows.map { case (v, c, _, _) => v * k + c }.sorted
    val i = keys.indices.find(i => keys(i) != i).getOrElse(keys.length)
    def row(key: Long) = label(key / k, (key % k).toInt)
    require(i == keys.length || keys(i) > i, s"duplicate profile row ${row(keys(i))}")
    require(i == keys.length && keys.length % k == 0, s"missing profile row ${row(i)}")
    val b0, d = new Array[Double](rows.length)
    rows.foreach { case (v, c, rb0, rd) => b0(v.toInt * k + c) = rb0; d(v.toInt * k + c) = rd }
    Dense(rows.length / k, k, b0, d)
  }

  /** `t` FJ steps of the `k` node-major opinion vectors with initial
    * opinions `b0` and stubbornness `d`; one Spark job per step. The same
    * jobs return each node's in-weight total, so edges that are not
    * column-stochastic are rejected without a job of their own.
    */
  private[core] def advance(edges: DataFrame, b0: Array[Double], d: Array[Double],
                            k: Int, t: Int): Array[Double] = {
    if (t == 0 || b0.isEmpty) return b0
    val n = b0.length / k
    val sc = edges.sparkSession.sparkContext
    val inEdges = edges.select(col("dst").cast("long"), col("src").cast("long"), col("w").cast("double"))
      .rdd.map(r => (r.getLong(0), (r.getLong(1), r.getDouble(2))))
      .groupByKey()
      .mapValues { es => val sorted = es.toArray.sorted; (sorted.map(_._1), sorted.map(_._2)) }
      .cache()
    try {
      var b = b0
      for (_ <- 1 to t) {
        val bc = sc.broadcast(b)
        val sums = try {
          inEdges.mapPartitions(_.map { case (dst, (srcs, ws)) =>
            // A source outside the profile yields no sums; the driver reports it.
            (dst, ws.sum, if (srcs.head < 0 || srcs.last >= n) null else inSums(srcs, ws, bc.value, k))
          }).collect()
        } finally bc.destroy()
        val next = new Array[Double](n * k)
        val inWeight = new Array[Double](n)
        val reached = new Array[Boolean](n)
        sums.foreach { case (dst, wTotal, s) =>
          require(dst >= 0 && dst < n, s"node $dst has in-edges but no profile row")
          require(s != null, s"an in-edge of node $dst comes from a node with no profile row")
          val base = dst.toInt * k
          reached(dst.toInt) = true
          inWeight(dst.toInt) = wTotal
          for (j <- 0 until k)
            next(base + j) = (1.0 - d(base + j)) * s(j) + d(base + j) * b0(base + j)
        }
        val orphan = reached.indexOf(false)
        require(orphan < 0, s"node $orphan has no in-edges; normalize the edges first")
        val skewed = inWeight.indexWhere(w => math.abs(w - 1.0) > StochasticTol)
        require(skewed < 0, s"the in-edge weights of node $skewed sum to ${inWeight(skewed)}, not 1: " +
          "edges are not column-stochastic; normalize the edges first")
        b = next
      }
      b
    } finally inEdges.unpersist(blocking = false)
  }

  /** How far a node's in-edge weight total may stray from 1. */
  private val StochasticTol = 1e-9

  /** One node's in-neighbour sums `Σ w·b(src)` for each of the `k`
    * vectors, over its in-edges in ascending `src` order.
    */
  private def inSums(srcs: Array[Long], ws: Array[Double], b: Array[Double], k: Int): Array[Double] = {
    val s = new Array[Double](k)
    for (e <- srcs.indices) {
      val base = srcs(e).toInt * k
      val w = ws(e)
      var j = 0
      while (j < k) { s(j) += b(base + j) * w; j += 1 }
    }
    s
  }
}
