package repro.core

/** Sandwich approximation (Algorithm 3, §IV) for the non-submodular scores.
  *
  * Plurality variants: lower bound `LB(S) = w[p] * sum_{v in Vq} b_qv[S]`
  * (Def 3, submodular by Thm 5) and upper bound
  * `UB(S) = w[1] * |N_S ∪ Vq|` (Def 4, submodular by Thm 6), where `Vq` is
  * the favorable users set (Def 1) and `N_S` the t-hop reachable set (Def 2).
  *
  * Copeland: upper bound `UB(S) = (r-1)/(floor(n/2)+1) * |N_S ∪ Uq|`
  * (Def 6) with the weakly favorable users set `Uq` (Def 5); the paper
  * derives no useful lower bound, so only `S_U` and `S_F` are compared.
  */
object Sandwich {

  /** @param seeds     the returned seed set `S#`
    * @param pickedFrom which of S_U / S_L / S_F won the final comparison
    * @param fValue    exact `F(S#)`
    * @param ratioU    the empirical factor `F(S_U)/UB(S_U)` of §IV-D; the
    *                  sandwich guarantee is `ratioU * (1 - 1/e)` (Eq 20)
    */
  final case class Result(seeds: Seq[Long], pickedFrom: String, fValue: Double,
                          sU: Seq[Long], sL: Option[Seq[Long]], sF: Seq[Long],
                          ratioU: Double)

  /** Favorable users set `Vq` (Def 1): users ranking the target within the
    * top `p` at the horizon with `seeds` for the target (the sandwich uses
    * none), that is, with a positive p-approval term; ascending. With
    * `p = r - 1` it is the weakly favorable users set `Uq` (Def 5): users
    * not ranking the target last.
    */
  private[repro] def favorable(inst: Instance, p: Int, seeds: Seq[Long]): Seq[Long] = {
    val approval = PApproval(p, inst.r)
    val b = inst.targetOpinions(seeds)
    b.indices.filter(v => approval.voterTerms(v, b(v), inst.competitors(v)).exists(_._2 > 0)).map(_.toLong)
  }

  /** Greedy maximization of `factor * |N_S ∪ fixed|` — a max coverage
    * ([[GraphOps.maxCoverage]]) of the users outside `fixed` by the t-hop
    * reach sets, on the driver. Returns the seeds and the exact UB value of
    * the returned set.
    */
  private[repro] def coverageGreedy(inst: Instance, fixed: Set[Long], k: Int, factor: Double): (Seq[Long], Double) = {
    val reach = GraphOps.reach(inst.csr, 0L until inst.n, inst.t).pairs
    val picks = GraphOps.maxCoverage(reach.filterNot(p => fixed(p._2)), k, inst.n)
    (picks.map(_._1), (fixed.size + picks.map(_._2).sum) * factor)
  }

  /** Algorithm 3 for a plurality-variant score. */
  def run(inst: Instance, score: PositionalPApproval, k: Int): Result = {
    val vq = favorable(inst, score.p, Nil).toSet
    val omega1 = score.weights.head
    val omegaP = score.weights(score.p - 1)
    val (sU, ubU) = coverageGreedy(inst, vq, k, omega1)
    val sL =
      if (vq.isEmpty) (0L until k.toLong).toVector // LB ≡ 0: any feasible set
      else GreedyDM.select(inst, RestrictedCumulative(vq, omegaP), k, celf = true).seeds
    val sF = GreedyDM.select(inst, score, k).seeds
    finish(inst, score, Seq("S_U" -> sU, "S_L" -> sL, "S_F" -> sF), sU, Some(sL), sF, ubU)
  }

  /** Algorithm 3 for the Copeland score (upper bound only, §IV-C). */
  def runCopeland(inst: Instance, k: Int): Result = {
    val uq = favorable(inst, inst.r - 1, Nil).toSet
    val factor = (inst.r - 1).toDouble / (inst.n / 2 + 1).toDouble
    val (sU, ubU) = coverageGreedy(inst, uq, k, factor)
    val sF = GreedyDM.select(inst, Copeland, k).seeds
    finish(inst, Copeland, Seq("S_U" -> sU, "S_F" -> sF), sU, None, sF, ubU)
  }

  private def finish(inst: Instance, score: VoteScore,
                     options: Seq[(String, Seq[Long])],
                     sU: Seq[Long], sL: Option[Seq[Long]], sF: Seq[Long],
                     ubU: Double): Result = {
    val scored = options.zip(inst.targetScores(score, options.map(_._2))).map { case ((nm, s), f) => (nm, s, f) }
    val (nm, s, f) = scored.maxBy(_._3)
    val fU = scored.find(_._1 == "S_U").get._3
    Result(s, nm, f, sU, sL, sF, if (ubU > 0) fU / ubU else 1.0)
  }
}
