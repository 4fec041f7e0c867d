package repro.perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{GraphOps, Instance}

/** Shape of one generated instance: `n` nodes, about `m` raw edges, `r`
  * candidates, horizon `t`, and an initial-opinion head start added to every
  * competitor's opinions (0 for none, negative for a handicap; opinions are
  * clipped to [0, 1]).
  */
final case class Shape(n: Int, m: Int, r: Int, t: Int, headStart: Double = 0.0)

/** Benchmark inputs, generated in plain Scala from the workload seed only.
  *
  * The form follows `repro.SynthSocial`: power-skewed sources (low ids are
  * hubs), mildly skewed destinations, raw weight `1 - e^{-a/mu}` with a
  * larger interaction count `a` for hub sources, uniform initial opinions
  * and stubbornness. Unlike `SynthSocial`, nothing here depends on Spark's
  * partitioning, so the same seed gives the same inputs under any core or
  * partition count.
  *
  * `b0(c)(v)` and `d(c)(v)` are candidate `c`'s profile at node `v`.
  */
final case class Inputs(shape: Shape, src: Array[Int], dst: Array[Int], w: Array[Double],
                        b0: Array[Array[Double]], d: Array[Array[Double]]) {
  def n: Int = shape.n
  def r: Int = shape.r

  /** 64-bit FNV-1a over every generated value, as 16 hex digits. */
  def fingerprint: String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L }
    mix(n.toLong); mix(r.toLong); mix(src.length.toLong)
    for (i <- src.indices) { mix(src(i).toLong); mix(dst(i).toLong); mix(java.lang.Double.doubleToLongBits(w(i))) }
    for (c <- 0 until r; v <- 0 until n) {
      mix(java.lang.Double.doubleToLongBits(b0(c)(v))); mix(java.lang.Double.doubleToLongBits(d(c)(v)))
    }
    f"$h%016x"
  }

  /** Raw edges `(src, dst, w)` as the program takes them. */
  def rawEdges(spark: SparkSession): DataFrame = {
    import spark.implicits._
    src.indices.map(i => (src(i).toLong, dst(i).toLong, w(i))).toDF("src", "dst", "w")
  }

  /** The program's instance for target candidate 0: raw edges through
    * `GraphOps.normalize`, edges and profile checkpointed.
    */
  def instance(spark: SparkSession): Instance = {
    import spark.implicits._
    val edges = GraphOps.normalize(spark, rawEdges(spark), n.toLong).localCheckpoint(true)
    val rows = for (c <- 0 until r; v <- 0 until n) yield (v.toLong, c, b0(c)(v), d(c)(v))
    val profile = rows.toDF("node", "cand", "b0", "d").localCheckpoint(true)
    Instance(edges, profile, n.toLong, r, 0, shape.t)
  }
}

object Inputs {

  // SynthSocial's defaults: source and destination skew, weight scale.
  private val SrcSkew = 2.5
  private val DstSkew = 1.3
  private val Mu = 10.0

  def generate(shape: Shape, seed: Long): Inputs = {
    import shape._
    val rng = new SplittableRandom(seed)
    val seen = scala.collection.mutable.HashSet.empty[Long]
    val src, dst = Array.newBuilder[Int]
    val w = Array.newBuilder[Double]
    var kept = 0
    var draws = 0
    // Oversample as SynthSocial does; self-loops and repeated pairs drop out.
    while (kept < m && draws < 3 * m + 64) {
      val s = math.min(n - 1, (math.pow(rng.nextDouble(), SrcSkew) * n).toInt)
      val t = math.min(n - 1, (math.pow(rng.nextDouble(), DstSkew) * n).toInt)
      val u = rng.nextDouble()
      draws += 1
      if (s != t && seen.add(s.toLong * n + t)) {
        val a = 1.0 + u * (4.0 + 15.0 * math.pow(1.0 - s.toDouble / n, 8.0))
        src += s; dst += t; w += 1.0 - math.exp(-a / Mu)
        kept += 1
      }
    }
    val b0 = Array.tabulate(r, n) { (c, _) =>
      val x = rng.nextDouble()
      if (c == 0) x else math.min(1.0, math.max(0.0, x + headStart))
    }
    val d = Array.fill(r, n)(rng.nextDouble())
    Inputs(shape, src.result(), dst.result(), w.result(), b0, d)
  }
}
