package repro.walks

import org.apache.spark.sql.DataFrame
import repro.core._

/** Front-ends for the paper's two efficient methods.
  *
  * RW (Algorithm 4): λ_v reverse walks from *every* node — λ from Thm 10
  * for the cumulative score and from Thms 11/12 (per-node γ heuristic) for
  * the ranked scores.
  *
  * RS (Algorithm 5): one reverse walk from each of θ uniformly sampled
  * start nodes — θ from Eq 40 (cumulative, with the deterministic OPT lower
  * bound) or caller-supplied for the ranked scores.
  */
object Methods {

  /** RW seed selection. `lambdaOverride` forces a uniform per-node walk
    * count (tests and benches use it to trade accuracy for speed exactly
    * like the paper trades via ρ/δ).
    */
  def rw(inst: Instance, score: VoteScore, k: Int,
         rho: Double = 0.9, delta: Double = 0.1, seed: Long = 42,
         lambdaOverride: Option[Int] = None, lambdaCap: Int = 2000): WalkGreedy.Result = {
    require(lambdaOverride.forall(_ >= 1) && lambdaCap >= 1,
      s"walks per node must be >= 1, got override $lambdaOverride and cap $lambdaCap")
    val lams = lambdaOverride.orElse(Option.when(score == Cumulative)(
      math.min(lambdaCap, Bounds.lambdaCumulative(delta, rho)))) match {
      case Some(lam) => (0L until inst.n).map(_ -> lam.toLong)
      case None => Bounds.lambdaPerNode(inst, rho, lambdaCap = lambdaCap).collect()
        .map(r => (r.getLong(0), r.getLong(1))).toSeq
    }
    val starts = lams.flatMap((WalkGen.nodeStarts _).tupled)
    walkGreedy(inst, score, k, starts, seed, obsIsWalk = false, scale = 1.0)
  }

  /** RS seed selection. θ defaults to Eq 40 for the cumulative score and to
    * `thetaCap` otherwise; callers of the ranked scores fix it with
    * `thetaOverride`.
    */
  def rs(inst: Instance, score: VoteScore, k: Int,
         eps: Double = 0.1, l: Double = 1.0, seed: Long = 43,
         thetaOverride: Option[Long] = None, thetaCap: Long = 200000L): WalkGreedy.Result = {
    require(thetaOverride.forall(_ >= 1) && thetaCap >= 1,
      s"sketch count must be >= 1, got override $thetaOverride and cap $thetaCap")
    val theta = thetaOverride.getOrElse {
      score match {
        case Cumulative =>
          val optLb = Bounds.optLowerBoundCumulative(inst, k)
          math.min(thetaCap, Bounds.thetaCumulative(inst.n, k, eps, l, optLb))
        case _ => thetaCap
      }
    }
    val starts = GraphOps.uniformNodes(inst.n, theta, seed)
    walkGreedy(inst, score, k, starts, seed + 1, obsIsWalk = true, scale = inst.n.toDouble / theta)
  }

  /** Walk greedy over one walk per start `(wid, start)`, generated as
    * packed paths and annotated on the driver.
    */
  private def walkGreedy(inst: Instance, score: VoteScore, k: Int, starts: Seq[(Long, Long)], seed: Long,
                         obsIsWalk: Boolean, scale: Double): WalkGreedy.Result = {
    val (b0, d) = inst.targetDense(Nil)
    WalkGreedy.select(inst, score, k, WalkGen.walks(inst.csr, d, starts, inst.t, seed), b0, obsIsWalk, scale)
  }

  /** Target candidate's stubbornness `(node, d)` with no seeds applied —
    * walk termination probabilities of Direct Generation (§V-A) — as a local
    * DataFrame.
    */
  def targetStubbornness(inst: Instance): DataFrame = inst.targetProfile(Nil).select("node", "d")
}
