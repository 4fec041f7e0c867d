package repro.baselines

import java.util.SplittableRandom
import repro.core.{GraphOps, Instance}

/** Classic-IM baseline ("IC"/"LT" + IMM in §VIII-A): reverse-reachable
  * (RR) set sampling and greedy maximum coverage.
  *
  * IC RR set: reverse BFS from a uniform root, where each in-edge `(u,v)`
  * is live independently with probability `w(u,v)`. LT RR set: from the
  * root, repeatedly pick exactly one in-neighbor with probability equal to
  * its (column-stochastic) weight — a reverse path. Both are capped at
  * `maxDepth` hops; we use the paper's horizon `t` so the baseline sees the
  * same diffusion window.
  *
  * IMM-lite substitution (documented in DESIGN.md): the sampling budget θ
  * is fixed by the caller instead of IMM's martingale stopping rule; seed
  * selection is the same greedy max-coverage, so the seeds are classic-IM
  * seeds as the paper intends for this baseline.
  */
object RRSets {

  /** The RR set under `model` of each root `(rr, node)`, root first,
    * grown over the in-edges `csr` with the draws of `rr`, on the driver.
    * An LT set is a reverse path that ends on an edge back to the path, a
    * self-loop included.
    */
  private[repro] def sample(csr: GraphOps.InCsr, model: String, roots: Seq[(Long, Long)],
                            maxDepth: Int, seed: Long): GraphOps.Packed = {
    val set: (Int, SplittableRandom) => Array[Int] = model match {
      case "ic" =>
        val bfs = new GraphOps.ReverseBfs(csr)
        (root, rng) => bfs(root, maxDepth)(e => rng.nextDouble() < csr.w(e))
      case "lt" => (root, rng) => GraphOps.reverseWalk(csr, root, maxDepth, _ => 0.0, rng, simple = true)
      case other => throw new IllegalArgumentException(s"unknown diffusion model: $other")
    }
    GraphOps.perRoot(roots)((rr, root) => set(root, GraphOps.draws(seed, rr)))
  }

  /** End-to-end baseline: sample θ RR sets under `model` from uniform
    * roots ([[GraphOps.uniformNodes]]) and pick the k nodes covering the
    * most of them ([[GraphOps.maxCoverage]]), all on the driver.
    */
  def select(inst: Instance, model: String, k: Int, theta: Long,
             seed: Long = 47): Seq[Long] = {
    val roots = GraphOps.uniformNodes(inst.n, theta, seed)
    GraphOps.maxCoverage(sample(inst.csr, model, roots, inst.t, seed + 1).pairs, k, inst.n).map(_._1)
  }
}
