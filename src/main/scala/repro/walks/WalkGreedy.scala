package repro.walks

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Greedy seed selection over pre-generated reverse random walks:
  * Algorithm 4 (RW) and Algorithm 5 (RS) share this engine — they differ
  * only in the start-node multiset and the score scale:
  *
  *   - RW: λ_v walks per node, observation = start node, scale = 1;
  *   - RS: one walk from each of θ uniform samples, observation = walk,
  *     scale = n/θ.
  *
  * Post-Generation Truncation (Thm 9): a walk's estimated value under seed
  * set `S` is 1 if its path intersects `S`, else the target's initial
  * opinion of its end node. Hence the marginal gain of a candidate seed `w`
  * is computable for *all* candidates in one scan: every not-yet-covered
  * walk whose path contains `w` would jump from `b0(end)` to 1.
  *
  * Ranking-based scores additionally use the competitors' exact horizon
  * opinions, computed once by direct matrix-vector multiplication (§V-B).
  */
object WalkGreedy {

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Mark walks covered by `seeds` (path intersects the seed set). */
  def applyCover(state: DataFrame, seeds: Seq[Long]): DataFrame =
    if (seeds.isEmpty) state
    else state.withColumn("covered",
      col("covered") || arrays_overlap(col("path"), array(seeds.map(lit): _*)))

  /** Per-observation estimates `(obs, node, b, lam)` under the current
    * cover state, where `node` is the observation's start node and `b` the
    * average over its `lam` walks of (1 if covered else b0(end)) — the
    * target opinion of that user, in the shape [[VoteScore.versus]] pairs
    * with the competitors' opinions.
    */
  private def estimates(state: DataFrame): DataFrame =
    state.groupBy(col("obs"), col("start").as("node")).agg(
      (sum(when(col("covered"), 1.0).otherwise(col("b0end"))) / count(lit(1))).as("b"),
      count(lit(1)).cast("double").as("lam"),
    )

  /** `(w, obs, node, est, b)`: the estimate `b` each observation would move
    * to from `est` if `w` were added as a seed (only observations with at
    * least one uncovered walk through `w` appear).
    */
  private def deltas(state: DataFrame, est: DataFrame): DataFrame =
    state.filter(!col("covered"))
      .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
        (lit(1.0) - col("b0end")).as("inc"))
      .groupBy("w", "obs").agg(sum("inc").as("dsum"))
      .join(est, Seq("obs"))
      .select(col("w"), col("obs"), col("node"), col("b").as("est"),
        (col("b") + col("dsum") / col("lam")).as("b"))

  /** Per-observation positional contribution `(keys…, c)` of the estimates
    * `b` in `ops` `(keys…, node, b)`.
    */
  private def contributions(ops: DataFrame, s: PositionalPApproval, compOps: DataFrame,
                            keys: String*): DataFrame =
    VoteScore.versus(ops, compOps)
      .groupBy(keys.map(col): _*).agg(VoteScore.rank)
      .select(keys.map(col) :+ VoteScore.positionalContrib(col("beta"), s.p, s.weights).as("c"): _*)

  /** Per-competitor one-on-one tallies `(x, wins, losses)` of the estimates. */
  private def tallies(est: DataFrame, compOps: DataFrame): DataFrame =
    VoteScore.versus(est, compOps)
      .groupBy("x")
      .agg(sum(when(col("b") > col("bx"), 1).otherwise(0)).as("wins"),
           sum(when(col("b") < col("bx"), 1).otherwise(0)).as("losses"))

  /** Estimated target score of the current cover state. */
  def scoreEstimate(state: DataFrame, score: VoteScore, compOps: DataFrame,
                    scale: Double): Double = {
    val est = estimates(state)
    score match {
      case Cumulative =>
        est.agg(sum("b")).head.getDouble(0) * scale
      case s: PositionalPApproval =>
        contributions(est, s, compOps, "obs").agg(sum("c")).head.getDouble(0) * scale
      case Copeland =>
        tallies(est, compOps).filter(col("wins") > col("losses")).count().toDouble
      case other =>
        throw new IllegalArgumentException(s"walk estimation not defined for ${other.name}")
    }
  }

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    *
    * Every gain below is the exact change of [[scoreEstimate]] that adding
    * `w` causes, so the estimate is computed once and then advanced by the
    * picked gain. The gains stay per score: Copeland is not additive over
    * observations, so it re-tallies each affected competition.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    val compOps = score match {
      case Cumulative => null // cumulative never consults competitors
      case _          => inst.competitorOpinions()
    }
    var state = annotatedWalks
    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]
    var cur = scoreEstimate(state, score, compOps, scale)

    for (_ <- 1 to k) {
      val est = estimates(state).localCheckpoint(true)
      val gainRows: Array[(Long, Double)] = score match {
        case Cumulative =>
          state.filter(!col("covered"))
            .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
              (lit(1.0) - col("b0end")).as("inc"))
            .join(est.select(col("obs"), col("lam")), Seq("obs"))
            .groupBy("w").agg((sum(col("inc") / col("lam")) * scale).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case s: PositionalPApproval =>
          val base = contributions(est, s, compOps, "obs")
            .select(col("obs"), col("c").as("c0")).localCheckpoint(true)
          contributions(deltas(state, est), s, compOps, "w", "obs")
            .join(base, Seq("obs"))
            .groupBy("w").agg((sum(col("c") - col("c0")) * scale).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case Copeland =>
          val base = tallies(est, compOps).localCheckpoint(true)
          VoteScore.versus(deltas(state, est), compOps)
            .groupBy("w", "x")
            .agg(sum(when(col("b") > col("bx"), 1).otherwise(0)
                   - when(col("est") > col("bx"), 1).otherwise(0)).as("dw"),
                 sum(when(col("b") < col("bx"), 1).otherwise(0)
                   - when(col("est") < col("bx"), 1).otherwise(0)).as("dl"))
            .join(base, Seq("x"))
            .groupBy("w")
            .agg((sum(when(col("wins") + col("dw") > col("losses") + col("dl"), 1.0)
              .otherwise(0.0)) - lit(cur)).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case other =>
          throw new IllegalArgumentException(s"walk greedy not defined for ${other.name}")
      }

      // A node on no uncovered walk changes no estimate: its gain is 0.
      val (pick, gain) = gainRows.filterNot { case (w, _) => seeds.contains(w) }
        .minByOption { case (w, g) => (-g, w) }
        .getOrElse(((0L until inst.n).filterNot(seeds.contains).head, 0.0))
      seeds :+= pick
      state = applyCover(state, Seq(pick)).localCheckpoint(true)
      cur += gain
      ests :+= cur
    }
    Result(seeds, ests)
  }
}
