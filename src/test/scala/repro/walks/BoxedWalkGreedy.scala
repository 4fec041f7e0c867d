package repro.walks

import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.functions._
import repro.core._
import scala.collection.immutable.TreeMap

/** The walk greedy that the array-based [[WalkGreedy]] replaced, kept as a
  * test reference: immutable `TreeMap` part totals, a `groupMapReduce` per
  * candidate per round and boxed indexes, over the annotated walks
  * [[BoxedWalkGreedy.Annotated]] of tuple-form walks. Its seeds and
  * estimates are the ones [[WalkGreedy]] must reproduce exactly.
  *
  * Greedy seed selection over pre-generated reverse random walks:
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
  * The annotated walks reach the driver once and every round runs there,
  * over an index from each node to the walks whose path holds it.
  * Ranking-based scores additionally use the competitors' exact horizon
  * opinions, computed once by direct matrix-vector multiplication (§V-B):
  * each observation is one voter of the score's [[BoxedScores.voterTerms]].
  */
object BoxedWalkGreedy {

  /** A walk of the greedy's working set, as [[WalkGen.annotate]] builds it. */
  final case class Annotated(wid: Long, obs: Long, start: Long, path: Seq[Long], b0end: Double, covered: Boolean)

  /** Walk `(wid, start, path)` annotated with `b0` of its end node. */
  def annotated(walk: (Long, Long, Seq[Long]), b0: Array[Double], obsIsWalk: Boolean): Annotated =
    Annotated(walk._1, if (obsIsWalk) walk._1 else walk._2, walk._2, walk._3, b0(walk._3.last.toInt), covered = false)

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Mark walks covered by `seeds` (path intersects the seed set). */
  def applyCover(state: DataFrame, seeds: Seq[Long]): DataFrame =
    if (seeds.isEmpty) state
    else state.withColumn("covered",
      col("covered") || arrays_overlap(col("path"), array(seeds.map(lit): _*)))

  /** The annotated walks `rows` sorted by `wid`, and their observations in
    * ascending `obs` order. Each observation is one voter of the score: its
    * start node, at the mean of its walks' values (1 if covered, else
    * `b0end`) summed in `wid` order, against the competitor opinions `comp`
    * of that node (ranked scores only).
    */
  private final class Walks(rows: Seq[Annotated], score: VoteScore, comp: Long => Array[Double]) {
    private val walks = rows.sortBy(_.wid).toArray
    val path: Array[Array[Long]] = walks.map(_.path.distinct.toArray)
    val b0end: Array[Double] = walks.map(_.b0end)
    val covered: Array[Boolean] = walks.map(_.covered)
    val walksOf: Array[Array[Int]] = walks.indices.toArray.groupBy(walks(_).obs).toArray.sortBy(_._1).map(_._2)
    val obsOf: Array[Int] = new Array[Int](walks.length)
    for (o <- walksOf.indices; i <- walksOf(o)) obsOf(i) = o

    def estimate(o: Int): Double = walksOf(o).map(i => if (covered(i)) 1.0 else b0end(i)).sum / walksOf(o).length

    /** The score's terms of observation `o` at estimate `b`. */
    def terms(o: Int, b: Double): Seq[(Int, Double)] = {
      val node = walks(walksOf(o).head).start
      BoxedScores.voterTerms(score, node, b, if (score.ranked) comp(node) else Array.emptyDoubleArray)
    }
  }

  /** The annotated walks of `state`, collected. */
  private def collected(state: DataFrame): Seq[Annotated] = state
    .select("wid", "obs", "start", "path", "b0end", "covered").as(Encoders.product[Annotated]).collect().toSeq

  /** `totals` plus `sgn` times each term `(part, v)`. */
  private def add(totals: TreeMap[Int, Double], terms: Iterable[(Int, Double)], sgn: Double): TreeMap[Int, Double] =
    terms.foldLeft(totals) { case (t, (part, v)) => t.updated(part, t.getOrElse(part, 0.0) + sgn * v) }

  /** The score's finish on the part totals scaled by `scale`. */
  private def finishScaled(score: VoteScore, totals: TreeMap[Int, Double], scale: Double): Double =
    BoxedScores.finish(score, totals.values.map(_ * scale))

  /** Estimated target score of the current cover state: the score's finish
    * on its part totals over the observations, scaled by `scale`.
    * `compOps` `(node, cand, b)` is only evaluated by ranked scores.
    */
  def scoreEstimate(state: DataFrame, score: VoteScore, compOps: => DataFrame,
                    scale: Double): Double = {
    lazy val byNode = VoteScore.competitorsByNode(compOps)
    val walks = new Walks(collected(state), score, v => byNode.getOrElse(v, Array.emptyDoubleArray))
    finishScaled(score, walks.walksOf.indices.foldLeft(TreeMap.empty[Int, Double]) { (t, o) =>
      add(t, walks.terms(o, walks.estimate(o)), 1.0)
    }, scale)
  }

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    *
    * The part totals of [[scoreEstimate]] are kept with each observation's
    * terms. Each round sums, for every candidate `w` on an uncovered walk,
    * `1 − b0end` over those walks per observation, and from the moved
    * estimates the change `Δw` in the part totals that adding `w` causes;
    * the gain of `w` is the exact change of the estimate,
    * `finish(scale·(base + Δw)) − finish(scale·base)`, ties to the smaller
    * id. The picked node's walks are marked covered and its `Δw` is added to
    * the totals. Every round runs on the driver.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result =
    select(inst, score, k, collected(annotatedWalks), scale)

  /** [[select]] over the annotated walks `rows`. */
  def select(inst: Instance, score: VoteScore, k: Int,
             rows: Seq[Annotated], scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    val walks = new Walks(rows, score, v => inst.competitors(v.toInt))
    val b = Array.tabulate(walks.walksOf.length)(walks.estimate)
    val terms = Array.tabulate(b.length)(o => walks.terms(o, b(o)))
    val index = walks.path.indices.flatMap(i => walks.path(i).map(_ -> i)).groupMap(_._1)(_._2)
    var base = terms.foldLeft(TreeMap.empty[Int, Double])(add(_, _, 1.0))
    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]

    for (_ <- 1 to k) {
      val cur = finishScaled(score, base, scale)
      // A node on no uncovered walk changes no estimate: its gain is 0.
      val change = index.iterator.filterNot { case (w, _) => seeds.contains(w) }.flatMap { case (w, ws) =>
        val dsum = ws.filter(i => !walks.covered(i)).groupMapReduce(walks.obsOf)(1 - walks.b0end(_))(_ + _)
        Option.when(dsum.nonEmpty)(w -> dsum.toSeq.sortBy(_._1).foldLeft(TreeMap.empty[Int, Double]) {
          case (delta, (o, s)) =>
            add(add(delta, walks.terms(o, b(o) + s / walks.walksOf(o).length), 1.0), terms(o), -1.0)
        })
      }
      val (pick, delta) = change
        .minByOption { case (w, delta) => (cur - finishScaled(score, add(base, delta, 1.0), scale), w) }
        .getOrElse(((0L until inst.n).filterNot(seeds.contains).head, TreeMap.empty[Int, Double]))
      seeds :+= pick
      val newlyCovered = index.getOrElse(pick, Nil).filter(i => !walks.covered(i))
      newlyCovered.foreach(walks.covered(_) = true)
      for (o <- newlyCovered.map(walks.obsOf).distinct) {
        b(o) = walks.estimate(o)
        terms(o) = walks.terms(o, b(o))
      }
      base = add(base, delta, 1.0)
      ests :+= finishScaled(score, base, scale)
    }
    Result(seeds, ests)
  }
}
