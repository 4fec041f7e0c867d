package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One FJ-Vote problem instance (Problem 1 inputs minus `k`):
  * normalized edges, per-candidate node profile `(node, cand, b0, d)`,
  * node count `n`, candidate count `r`, target candidate `q`, horizon `t`.
  */
final case class Instance(edges: DataFrame, profile: DataFrame,
                          n: Long, r: Int, q: Int, t: Int) {
  require(r > 1, s"the paper assumes r > 1 candidates, got $r")
  require(q >= 0 && q < r, s"target candidate $q out of range [0,$r)")

  /** The seedless horizon: exact opinions `(node, cand, b)` of every
    * candidate at `t` with no seeds, diffused once, on first use, and held
    * as the local DataFrame [[OpinionDiffusion.diffuse]] returns. A copy of
    * the instance diffuses its own.
    */
  private lazy val horizon: DataFrame = OpinionDiffusion.diffuse(edges, profile, t)

  /** Exact horizon-`t` opinions of every candidate with `seeds` for `q`. */
  def opinions(seeds: Seq[Long] = Nil): DataFrame =
    if (seeds.isEmpty) horizon
    else OpinionDiffusion.diffuse(edges, OpinionDiffusion.applySeeds(profile, q, seeds), t)

  /** Exact competitor opinions at the horizon; `q`'s seeds do not change
    * them, since diffusion is independent per candidate (§II-A).
    */
  def competitorOpinions(): DataFrame = horizon.filter(col("cand") =!= q)

  /** Target candidate's profile `(node, b0, d)` with `seeds` applied. */
  def targetProfile(seeds: Seq[Long]): DataFrame =
    OpinionDiffusion.applySeeds(profile, q, seeds)
      .filter(col("cand") === q)
      .select("node", "b0", "d")

  /** Exact target score at the horizon given `seeds`. */
  def targetScore(score: VoteScore, seeds: Seq[Long]): Double =
    score.exact(opinions(seeds), q)

  /** Problem 2 winning test: target's score strictly exceeds every
    * competitor's score at the horizon (Eq 9).
    */
  def wins(score: VoteScore, seeds: Seq[Long]): Boolean = {
    val ops = opinions(seeds)
    val tgt = score.exact(ops, q)
    (0 until r).filter(_ != q).forall(c => tgt > score.exact(ops, c))
  }
}
