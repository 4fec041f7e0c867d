package repro.walks

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame}
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
  * opinions, computed once by direct matrix-vector multiplication (§V-B)
  * and broadcast to the executors, which apply each score's
  * [[VoteScore.voterTerms]] to the observations.
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
    * target opinion of that user, one voter of [[VoteScore.voterTerms]].
    */
  private def estimates(state: DataFrame): DataFrame =
    state.groupBy(col("obs"), col("start").as("node")).agg(
      (sum(when(col("covered"), 1.0).otherwise(col("b0end"))) / count(lit(1))).as("b"),
      count(lit(1)).cast("double").as("lam"),
    )

  /** `(w, obs, sgn, node, b)`: each observation with an uncovered walk
    * through `w`, at the estimate `b` it would move to if `w` were added as
    * a seed (`sgn = 1`) and at its current estimate (`sgn = -1`).
    */
  private def moves(state: DataFrame): DataFrame =
    state.filter(!col("covered"))
      .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
        (lit(1.0) - col("b0end")).as("inc"))
      .groupBy("w", "obs").agg(sum("inc").as("dsum"))
      .join(estimates(state), Seq("obs"))
      .select(col("w"), col("obs"), col("node"), explode(array(
        struct(lit(1.0).as("sgn"), (col("b") + col("dsum") / col("lam")).as("b")),
        struct(lit(-1.0).as("sgn"), col("b")))).as("m"))
      .select(col("w"), col("obs"), col("m.sgn").as("sgn"), col("node"), col("m.b").as("b"))

  /** Competitor opinions of a node, broadcast to the executors; `None` for
    * a score that is not ranked, which never reads them.
    */
  private type Competitors = Option[Broadcast[Long => Array[Double]]]

  /** `body` given the competitor opinions `comp` broadcast, if `score` is
    * ranked; the broadcast is destroyed afterwards.
    */
  private def withCompetitors[A](sc: SparkContext, score: VoteScore, comp: => Long => Array[Double])
                                (body: Competitors => A): A = {
    val bc = Option.when(score.ranked)(sc.broadcast(comp))
    try body(bc) finally bc.foreach(_.destroy())
  }

  /** Sums `key -> part -> Σ sgn·v` of the score's voter terms over `rows`,
    * one voter `(node, b)` per row.
    */
  private def termSums(rows: DataFrame, key: Column, sgn: Column, score: VoteScore,
                       comp: Competitors): Map[Long, Map[Int, Double]] = {
    val terms = udf((node: Long, b: Double) =>
      score.voterTerms(node, b, comp.fold(Array.emptyDoubleArray)(_.value(node))))
    rows.select(key.as("key"), sgn.as("sgn"), explode(terms(col("node"), col("b"))).as("t"))
      .groupBy(col("key"), col("t._1")).agg(sum(col("sgn") * col("t._2"))).collect()
      .groupBy(_.getLong(0)).map { case (key, rs) => key -> rs.map(r => r.getInt(1) -> r.getDouble(2)).toMap }
  }

  /** Per-part sums `part -> Σ v` of the score's terms over the estimates. */
  private def partTotals(state: DataFrame, score: VoteScore, comp: Competitors): Map[Int, Double] =
    termSums(estimates(state), lit(0L), lit(1.0), score, comp).getOrElse(0L, Map.empty)

  /** The score's finish on the part totals scaled by `scale`. */
  private def finishScaled(score: VoteScore, totals: Map[Int, Double], scale: Double): Double =
    score.finish(totals.values.map(_ * scale))

  /** Estimated target score of the current cover state: the score's finish
    * on its part totals over the observations, scaled by `scale`.
    * `compOps` `(node, cand, b)` is only evaluated by ranked scores.
    */
  def scoreEstimate(state: DataFrame, score: VoteScore, compOps: => DataFrame,
                    scale: Double): Double =
    withCompetitors(state.sparkSession.sparkContext, score, {
      val byNode = VoteScore.competitorsByNode(compOps)
      v => byNode.getOrElse(v, Array.emptyDoubleArray)
    })(comp => finishScaled(score, partTotals(state, score, comp), scale))

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    *
    * The part totals of [[scoreEstimate]] are kept as a local map. Each round
    * sums, for every candidate `w`, the change `Δw` in the part totals that
    * adding `w` causes; the gain of `w` is the exact change of the estimate,
    * `finish(scale·(base + Δw)) − finish(scale·base)`, and the picked `Δw`
    * is added to the totals.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    withCompetitors(inst.edges.sparkSession.sparkContext, score, {
      val competitors = inst.competitors
      v => competitors(v.toInt)
    }) { comp =>
      var state = annotatedWalks
      var seeds = Vector.empty[Long]
      var ests = Vector.empty[Double]
      var base = partTotals(state, score, comp)

      for (_ <- 1 to k) {
        val change = termSums(moves(state), col("w"), col("sgn"), score, comp)
        def plus(delta: Iterable[(Int, Double)]) =
          delta.foldLeft(base) { case (t, (part, v)) => t.updated(part, t.getOrElse(part, 0.0) + v) }
        val cur = finishScaled(score, base, scale)
        // A node on no uncovered walk changes no estimate: its gain is 0.
        val (pick, delta) = change.filterNot { case (w, _) => seeds.contains(w) }
          .minByOption { case (w, delta) => (cur - finishScaled(score, plus(delta), scale), w) }
          .getOrElse(((0L until inst.n).filterNot(seeds.contains).head, Map.empty[Int, Double]))
        seeds :+= pick
        state = applyCover(state, Seq(pick)).localCheckpoint(true)
        base = plus(delta)
        ests :+= finishScaled(score, base, scale)
      }
      Result(seeds, ests)
    }
  }
}
