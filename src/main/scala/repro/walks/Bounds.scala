package repro.walks

import org.apache.spark.sql.DataFrame
import repro.core.{Cumulative, Instance}

/** Walk-count bounds of §V-C and §VI.
  *
  * λ bounds (Thms 10–12) govern the per-node walk counts of the RW method;
  * θ (Eq 40) governs the sketch count of the RS method for the cumulative
  * score. For the ranked scores the caller sets θ.
  */
object Bounds {

  /** Thm 10: walks per node so each opinion estimate is within `delta` of
    * the exact value with probability >= `rho`.
    */
  def lambdaCumulative(delta: Double, rho: Double): Int = {
    require(delta > 0 && rho > 0 && rho < 1, s"need delta>0, 0<rho<1; got $delta, $rho")
    math.ceil(math.log(2.0 / (1.0 - rho)) / (2.0 * delta * delta)).toInt
  }

  /** Thm 11 (plurality variants): walks per node given the opinion gap
    * `gamma` between the target and its nearest competitor for that node.
    */
  def lambdaRanked(gamma: Double, rho: Double): Int = {
    require(gamma > 0, s"Thm 11 assumes gamma != 0, got $gamma")
    math.ceil(math.log(2.0 / (1.0 - rho)) / (2.0 * gamma * gamma)).toInt
  }

  /** Thm 12 (Copeland): one-sided version of [[lambdaRanked]]. */
  def lambdaCopeland(gamma: Double, rho: Double): Int = {
    require(gamma > 0, s"Thm 12 assumes gamma != 0, got $gamma")
    math.ceil(math.log(1.0 / (1.0 - rho)) / (2.0 * gamma * gamma)).toInt
  }

  /** Per-node λ for the ranked scores from the per-node gap
    * `gamma_v = min_x |b_xv - b_qv|` computed on the seedless exact
    * opinions. The paper's greedy γ* heuristic (Eq 33) searches over seed
    * sets; we substitute the ∅-seed gap floored at `gammaFloor` and cap the
    * resulting λ at `lambdaCap` — smaller γ would only demand *more* walks,
    * and the cap bounds the walk budget like the paper's α-start heuristic.
    * Rows `(node, lam)`, a local DataFrame computed on the driver from the
    * instance's horizon.
    */
  def lambdaPerNode(inst: Instance, rho: Double,
                    gammaFloor: Double = 0.05, lambdaCap: Int = 2000): DataFrame = {
    val spark = inst.edges.sparkSession
    import spark.implicits._
    val c = math.log(2.0 / (1.0 - rho)) / 2.0
    val b = inst.targetOpinions(Nil)
    b.indices.map { v =>
      val gamma = math.max(inst.competitors(v).map(x => math.abs(x - b(v))).min, gammaFloor)
      (v.toLong, math.min(lambdaCap.toLong, math.ceil(c / (gamma * gamma)).toLong))
    }.toDF("node", "lam")
  }

  /** ln C(n, k) via a log-sum (exact, no overflow). */
  def logChoose(n: Long, k: Int): Double =
    (0 until k).map(i => math.log((n - i).toDouble) - math.log((i + 1).toDouble)).sum

  /** Eq 40: sketches needed for the cumulative score to make Alg 5 a
    * (1 - 1/e - eps)-approximation w.p. >= 1 - n^-l, given a lower bound
    * `optLb` on OPT.
    */
  def thetaCumulative(n: Long, k: Int, eps: Double, l: Double, optLb: Double): Long = {
    require(optLb > 0, s"OPT lower bound must be positive, got $optLb")
    val e1 = 1.0 - 1.0 / math.E
    val ln2nl = math.log(2.0) + l * math.log(n.toDouble)
    val inner = e1 * math.sqrt(ln2nl) + math.sqrt(e1 * (ln2nl + logChoose(n, k)))
    math.ceil(2.0 * n / (optLb * eps * eps) * inner * inner).toLong
  }

  /** Deterministic OPT lower bound for Eq 40: every score is non-decreasing
    * in the seed set (§III-B), so OPT >= F(∅); and the k seeds each hold
    * opinion 1, so OPT >= k for the cumulative score. This replaces the
    * statistical halving test of [3] (never optimistic, so θ only grows).
    */
  def optLowerBoundCumulative(inst: Instance, k: Int): Double =
    math.max(k.toDouble, inst.targetScore(Cumulative, Nil))
}
