package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Exact opinion diffusion under the Friedkin–Johnsen model (Eq 2 of the
  * paper); DeGroot (Eq 1) is the special case of all-zero stubbornness.
  *
  * Both kernels advance `k` opinion vectors over the `n` nodes together:
  * one per candidate in [[diffuse]], one per candidate seed in
  * [[diffuseScenarios]]. Each call collects the edges into the in-edge CSR
  * ([[GraphOps.inCsr]]) and checks it once ([[GraphOps.edgeDefect]]). The
  * step loop ([[advance]]) then takes all `k` vectors through the `t` steps
  * on the driver, with no Spark job, `b = (1 − d)·wsum + d·b0`, where
  * `wsum` is a node's weighted in-neighbour sum in ascending `src` order,
  * so results do not depend on partitioning. The result is a local
  * DataFrame with no lineage. [[Instance]] collects its profile ([[Dense]])
  * and its CSR once and calls the step loop on them directly.
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

  /** Exact opinions `(node, cand, b)` of every user about every candidate at
    * horizon `t`, given normalized edges and profile `(node, cand, b0, d)`.
    */
  def diffuse(edges: DataFrame, profile: DataFrame, t: Int): DataFrame = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    val p = Dense(profile)
    frame(edges.sparkSession, advance(GraphOps.inCsr(edges), p.b0, p.d, p.k, t), p.k)
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
    val k = scen.length
    // Scenario j pins its own node: b0 = d = 1 there.
    def pinned(base: Array[Double]) = {
      val out = new Array[Double](p.n * k)
      for (i <- out.indices) out(i) = if (scen(i % k) == i / k) 1.0 else base(i / k)
      out
    }
    val b = advance(GraphOps.inCsr(edges), pinned(p.b0), pinned(p.d), k, t)
    import edges.sparkSession.implicits._
    (for (v <- 0 until p.n; j <- scen.indices) yield (scen(j), v.toLong, b(v * k + j))).toDF("scen", "node", "b")
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
    * opinions `b0` and stubbornness `d` over the in-edges `csr`, which are
    * checked once ([[GraphOps.edgeDefect]]), in one loop on the calling
    * thread over two `n·k` buffers, swapped each step.
    */
  private[core] def advance(csr: GraphOps.InCsr, b0: Array[Double], d: Array[Double],
                            k: Int, t: Int): Array[Double] = {
    if (k == 0) return b0
    val n = b0.length / k
    GraphOps.edgeDefect(csr, n).foreach(msg => throw new IllegalArgumentException(msg))
    if (t == 0) return b0
    // Step 1 reads b0; each later step writes over the buffer the step before it read.
    var (b, spare) = (b0, null: Array[Double])
    val s = new Array[Double](k)
    for (_ <- 1 to t) {
      val (cur, out) = (b, if (spare == null) new Array[Double](n * k) else spare)
      for (v <- 0 until n) {
        // Node v's in-neighbour sums Σ w·b(src) of the k vectors, sources ascending.
        java.util.Arrays.fill(s, 0.0)
        for (e <- csr.in(v)) {
          val (from, w) = (csr.src(e) * k, csr.w(e))
          var j = 0 // a while loop: this is the hot loop of every exact score
          while (j < k) { s(j) += cur(from + j) * w; j += 1 }
        }
        for (j <- 0 until k) {
          val i = v * k + j
          out(i) = (1.0 - d(i)) * s(j) + d(i) * b0(i)
        }
      }
      spare = if (cur eq b0) null else cur
      b = out
    }
    b
  }
}
