package repro.core

import scala.collection.mutable

/** Greedy seed selection with exact opinion computation ("DM" in the paper;
  * Algorithm 1), optionally with CELF lazy evaluation [49] for the
  * submodular cumulative score (§III-C).
  *
  * Marginal gains for one greedy round are evaluated with a single
  * scenario-vectorized diffusion ([[Instance.targetScores]], on the driver
  * with no Spark job) instead of one diffusion per candidate seed; each
  * scenario is scored as it is read back.
  */
object GreedyDM {

  /** Ordered seeds and the exact target score after each pick. */
  final case class Result(seeds: Seq[Long], scores: Seq[Double])

  /** The scenario that adds no seed: its score is `F(S)` itself. */
  private val NoSeed = -1L

  /** Evaluate `F(S ∪ {w})` for every scenario `w` in `cands`, in one diffusion. */
  private def scenarioScores(inst: Instance, score: VoteScore, seeds: Seq[Long],
                             cands: Seq[Long]): Map[Long, Double] =
    cands.zip(inst.targetScores(score, cands.map(w => if (w == NoSeed) seeds else seeds :+ w))).toMap

  /** Heap entry: marginal-gain upper bound for `node`, computed in greedy
    * round `round`, i.e. with `round - 1` seeds; it is fresh in that round.
    * Each unpicked node has exactly one entry.
    */
  private final case class Entry(gain: Double, node: Long, round: Int)

  /** Algorithm 1: pick `k` seeds greedily by exact marginal gain.
    *
    * Both variants run one lazy-greedy loop over a heap of marginal gains.
    * Plain greedy re-evaluates every stale entry each round, so its pick is
    * the exact argmax; CELF re-evaluates stale entries only until a fresh
    * one reaches the top.
    *
    * @param celf lazy (CELF) evaluation — only sound for submodular scores
    *             (cumulative); plain greedy re-evaluates all candidates
    *             each round.
    * @param celfBatch number of stale candidates re-evaluated per
    *                  scenario-diffusion when running CELF.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             celf: Boolean = false, celfBatch: Int = 64): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    val batch = if (celf) celfBatch else Int.MaxValue
    // Round 1 evaluates every node and, as the no-seed scenario, F(∅).
    val init = scenarioScores(inst, score, Nil, (0L until inst.n) :+ NoSeed)
    var cur = init(NoSeed)
    // Max-heap on (possibly stale) marginal-gain bounds; ties to smaller id.
    val heap = mutable.PriorityQueue.empty[Entry](
      Ordering.by(e => (e.gain, -e.node)))
    (0L until inst.n).foreach(w => heap.enqueue(Entry(init(w) - cur, w, 1)))

    var seeds = Vector.empty[Long]
    var scores = Vector.empty[Double]
    for (round <- 1 to k) {
      while (heap.head.round != round) {
        // Re-evaluate a batch of stale tops with one scenario diffusion.
        // Stop early if a fresh entry reaches the heap top: under
        // submodularity stale bounds below it cannot beat it.
        val stale = mutable.Buffer(heap.dequeue())
        while (stale.size < batch && heap.nonEmpty && heap.head.round != round)
          stale += heap.dequeue()
        val ws = stale.map(_.node).sorted.toSeq
        val sc = scenarioScores(inst, score, seeds, ws)
        ws.foreach(x => heap.enqueue(Entry(sc(x) - cur, x, round)))
      }
      // Fresh for this seed set; every other entry is either fresh or a
      // (stale) upper bound ≤ top.gain, so top is the argmax.
      val top = heap.dequeue()
      seeds :+= top.node; cur += math.max(0.0, top.gain); scores :+= cur
    }
    Result(seeds, scores)
  }
}
