package repro.core

import org.apache.spark.SparkContext

/** The one-job FJ loop that [[OpinionDiffusion.advance]] replaced, kept as a
  * test reference: `(csr, b0, d)` is broadcast and each Spark task runs all
  * `t` steps on a contiguous slice of the opinion vectors, which the driver
  * reassembles.
  */
object SliceDiffusion {

  /** `t` FJ steps of the `k` node-major opinion vectors with initial
    * opinions `b0` and stubbornness `d` over the in-edges `csr`, which are
    * checked once ([[GraphOps.edgeDefect]]), in one Spark job: `(csr, b0, d)`
    * is broadcast and each of `min(k, defaultParallelism)` tasks runs every
    * step on its own contiguous slice of the vectors.
    */
  def advance(csr: GraphOps.InCsr, b0: Array[Double], d: Array[Double],
              k: Int, t: Int): Array[Double] = {
    if (k == 0) return b0
    val n = b0.length / k
    GraphOps.edgeDefect(csr, n).foreach(msg => throw new IllegalArgumentException(msg))
    if (t == 0) return b0
    val sc = SparkContext.getOrCreate()
    val shared = sc.broadcast((csr, b0, d))
    val slices = math.min(k, sc.defaultParallelism)
    val parts = try sc.parallelize(0 until slices, slices).map { part =>
      // Vectors lo until lo + m, held slice-major: entry v * m + j is vector lo + j at node v.
      val (csr, b0, d) = shared.value
      val (lo, m) = (part * k / slices, (part + 1) * k / slices - part * k / slices)
      var b = Array.tabulate(n * m)(i => b0(i / m * k + lo + i % m))
      for (_ <- 1 to t) {
        val next = new Array[Double](n * m)
        for (v <- 0 until n) {
          // Node v's in-neighbour sums Σ w·b(src) of the slice's vectors, sources ascending.
          val s = new Array[Double](m)
          for (e <- csr.in(v); j <- 0 until m) s(j) += b(csr.src(e) * m + j) * csr.w(e)
          for (j <- 0 until m; i = v * k + lo + j) next(v * m + j) = (1.0 - d(i)) * s(j) + d(i) * b0(i)
        }
        b = next
      }
      (lo, b)
    }.collect() finally shared.destroy()
    val out = new Array[Double](n * k)
    for ((lo, b) <- parts; m = b.length / n; i <- b.indices) out(i / m * k + lo + i % m) = b(i)
    out
  }
}
