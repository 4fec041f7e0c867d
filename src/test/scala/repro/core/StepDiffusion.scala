package repro.core

import org.apache.spark.SparkContext

/** The per-step FJ loop that [[OpinionDiffusion.advance]] replaced, kept as a
  * test reference: one Spark job per timestep, each broadcasting the
  * current `n × k` opinions and collecting every node's in-neighbour sums.
  */
object StepDiffusion {

  /** `t` FJ steps of the `k` node-major opinion vectors with initial
    * opinions `b0` and stubbornness `d` over the in-edges `csr`, which are
    * checked once ([[GraphOps.edgeDefect]]); one Spark job per step.
    */
  def advance(csr: GraphOps.InCsr, b0: Array[Double], d: Array[Double],
              k: Int, t: Int): Array[Double] = {
    if (k == 0) return b0
    val n = b0.length / k
    GraphOps.edgeDefect(csr, n).foreach(msg => throw new IllegalArgumentException(msg))
    val sc = SparkContext.getOrCreate()
    val bcCsr = sc.broadcast(csr)
    try {
      var b = b0
      for (_ <- 1 to t) {
        val bc = sc.broadcast(b)
        val sums = try sc.parallelize(0 until n).map { v =>
          // Node v's in-neighbour sums Σ w·b(src) of the k vectors, sources ascending.
          val (csr, b, s) = (bcCsr.value, bc.value, new Array[Double](k))
          for (e <- csr.in(v); j <- 0 until k) s(j) += b(csr.src(e) * k + j) * csr.w(e)
          s
        }.collect() finally bc.destroy()
        b = Array.tabulate(n * k)(i => (1.0 - d(i)) * sums(i / k)(i % k) + d(i) * b0(i))
      }
      b
    } finally bcCsr.destroy()
  }
}
