package repro.core

/** Problem 2 (FJ-Vote-Win): smallest seed-set size `k*` for the target to
  * have the strictly highest score at the horizon (Eq 9, Algorithm 2).
  *
  * Our greedy methods (DM, RW, RS) all produce *nested* seed sequences —
  * the budget-k solution is a prefix of the budget-(k+1) solution — and
  * adding target seeds can only raise the target's score and (for the
  * ranking-based scores) lower each competitor's. The winning predicate is
  * therefore monotone along the greedy sequence, so Algorithm 2's binary
  * search over budgets reduces to a binary search over prefixes of one
  * greedy run; [[minSeedsToWin]] implements that.
  */
object WinSearch {

  /** Minimal winning prefix of a (greedy) seed sequence, or None if even the
    * full sequence does not win. Returns (k*, winning seed set). Every
    * prefix is diffused as one column of a single call, with no Spark job;
    * the binary search then reads the wins.
    */
  def minSeedsToWin(inst: Instance, score: VoteScore, seedSeq: Seq[Long]): Option[(Int, Seq[Long])] = {
    if (inst.wins(score, Nil)) return Some((0, Nil))
    val wins = inst.winsEach(score, (1 to seedSeq.length).map(seedSeq.take))
    if (!wins.lastOption.contains(true)) return None
    var lo = 0                 // largest known-losing prefix
    var hi = seedSeq.length    // smallest known-winning prefix
    while (hi - lo > 1) {
      val mid = (lo + hi) / 2
      if (wins(mid - 1)) hi = mid else lo = mid
    }
    Some((hi, seedSeq.take(hi)))
  }
}
