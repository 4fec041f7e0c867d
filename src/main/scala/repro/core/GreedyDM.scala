package repro.core

import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Greedy seed selection with exact opinion computation ("DM" in the paper;
  * Algorithm 1), optionally with CELF lazy evaluation [49] for the
  * submodular cumulative score (§III-C).
  *
  * Marginal gains for one greedy round are evaluated with a single
  * scenario-vectorized diffusion ([[OpinionDiffusion.diffuseScenarios]])
  * instead of one diffusion per candidate seed.
  */
object GreedyDM {

  /** Ordered seeds and the exact target score after each pick. */
  final case class Result(seeds: Seq[Long], scores: Seq[Double])

  /** Evaluate `F(S ∪ {w})` for every scenario `w` in `cands`. */
  private def scenarioScores(inst: Instance, score: VoteScore, seeds: Seq[Long],
                             cands: Seq[Long]): Map[Long, Double] = {
    val spark = inst.edges.sparkSession
    import spark.implicits._
    val scenDf = cands.toDF("scen")
    val targetOps = OpinionDiffusion.diffuseScenarios(
      inst.edges, inst.targetProfile(seeds), scenDf, inst.t)
    score.byScenario(targetOps, inst.competitorOpinions())
      .collect()
      .map(row => row.getLong(0) -> row.getDouble(1))
      .toMap
  }

  /** Algorithm 1: pick `k` seeds greedily by exact marginal gain.
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
    if (celf) selectCelf(inst, score, k, celfBatch)
    else selectPlain(inst, score, k)
  }

  private def selectPlain(inst: Instance, score: VoteScore, k: Int): Result = {
    var seeds = Vector.empty[Long]
    var scores = Vector.empty[Double]
    for (_ <- 1 to k) {
      val cands = (0L until inst.n).filterNot(seeds.contains)
      val sc = scenarioScores(inst, score, seeds, cands)
      // Ties break to the smallest node id for determinism.
      val (best, bestScore) = sc.toSeq.sortBy { case (w, s) => (-s, w) }.head
      seeds :+= best
      scores :+= bestScore
    }
    Result(seeds, scores)
  }

  /** Heap entry: marginal-gain upper bound for `node`, computed in greedy
    * round `round`, i.e. with `round - 1` seeds; it is fresh in that round.
    * Each node has exactly one live entry.
    */
  private final case class Entry(gain: Double, node: Long, round: Int)

  private def selectCelf(inst: Instance, score: VoteScore, k: Int, batch: Int): Result = {
    val base0 = inst.targetScore(score, Nil)
    val init = scenarioScores(inst, score, Nil, 0L until inst.n)
    // Max-heap on (possibly stale) marginal-gain bounds; ties to smaller id.
    val heap = mutable.PriorityQueue.empty[Entry](
      Ordering.by(e => (e.gain, -e.node)))
    init.foreach { case (w, s) => heap.enqueue(Entry(s - base0, w, 1)) }

    var seeds = Vector.empty[Long]
    var scores = Vector.empty[Double]
    var cur = base0
    for (round <- 1 to k) {
      var picked = false
      while (!picked) {
        val top = heap.dequeue()
        if (seeds.contains(top.node)) {
          // Leftover entry of an already-picked seed; drop it.
        } else if (top.round == round) {
          // Fresh for this seed set; every other entry is a (stale) upper
          // bound ≤ top.gain under submodularity, so top is the argmax.
          seeds :+= top.node; cur += math.max(0.0, top.gain); scores :+= cur
          picked = true
        } else {
          // Re-evaluate a batch of stale tops with one scenario diffusion.
          // Stop early if a fresh entry reaches the heap top: stale bounds
          // below it cannot beat it.
          val stale = mutable.Buffer(top)
          while (stale.size < batch && heap.nonEmpty && heap.head.round != round)
            stale += heap.dequeue()
          val ws = stale.map(_.node).toSeq
          val sc = scenarioScores(inst, score, seeds, ws)
          ws.foreach(x => heap.enqueue(Entry(sc(x) - cur, x, round)))
        }
      }
    }
    Result(seeds, scores)
  }
}
