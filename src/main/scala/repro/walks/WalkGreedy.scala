package repro.walks

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import scala.collection.immutable.ArraySeq

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
  * The walks reach the driver once, as packed node lists
  * ([[GraphOps.Packed]]), and every round runs there over primitive arrays:
  * the walks in `wid` order with their distinct path nodes, each
  * observation's walks, an index from each node to the walks whose path
  * holds it, and the score's part totals indexed by part. Ranking-based
  * scores additionally use the competitors' exact horizon opinions,
  * computed once by direct matrix-vector multiplication (§V-B): each
  * observation is one voter of the score's [[VoteScore.voterTerms]].
  */
object WalkGreedy {

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Indexes of `keys` in ascending key order, equal keys in index order. */
  private def ascending(keys: Array[Long]): Array[Int] =
    if (keys.indices.drop(1).forall(i => keys(i - 1) <= keys(i))) keys.indices.toArray
    else keys.indices.sortBy(keys(_)).toArray

  /** The greedy's working set: the walks of `walks`, whose observation
    * keys, end opinions `b0end` and cover flags are given in the same
    * order, held sorted by `wid`, and their observations in ascending key
    * order. Each observation is one voter of the score: the start node of
    * its walks, at the mean of its walks' values (1 if covered, else
    * `b0end`) summed in `wid` order, against the competitor opinions `comp`
    * of that node (ranked scores only).
    */
  private final class Walks(walks: GraphOps.Packed, obsKey: Array[Long], b0endOf: Array[Double],
                            coveredOf: Array[Boolean], score: VoteScore, comp: Long => Array[Double]) {
    private val order = ascending(walks.roots)
    val b0end: Array[Double] = order.map(b0endOf)
    val covered: Array[Boolean] = order.map(coveredOf)
    /** Walk `i`'s distinct path nodes are `path(pathOff(i) until pathOff(i + 1))`. */
    val (pathOff, path) = {
      val nodes = order.map(i => walks.nodesOf(i).distinct)
      (nodes.scanLeft(0)(_ + _.length), Array.concat(nodes.toIndexedSeq: _*))
    }
    /** Observation `o`'s walks are `byObs(obsOff(o) until obsOff(o + 1))`, ascending. */
    private val key = order.map(obsKey)
    private val byObs = ascending(key)
    private val obsOff =
      0 +: byObs.indices.drop(1).filter(j => key(byObs(j)) != key(byObs(j - 1))).toArray :+ byObs.length
    val obsCount: Int = obsOff.length - 1
    val obsOf: Array[Int] = new Array[Int](order.length)
    for (o <- 0 until obsCount; j <- obsOff(o) until obsOff(o + 1)) obsOf(byObs(j)) = o
    private val node = Array.tabulate(obsCount)(o => walks.nodes(walks.off(order(byObs(obsOff(o))))).toLong)

    def walkCount(o: Int): Int = obsOff(o + 1) - obsOff(o)

    def estimate(o: Int): Double = {
      var s = 0.0
      for (j <- obsOff(o) until obsOff(o + 1)) s += (if (covered(byObs(j))) 1.0 else b0end(byObs(j)))
      s / walkCount(o)
    }

    /** The score's terms of observation `o` at estimate `b`. */
    def terms(o: Int, b: Double): Seq[(Int, Double)] =
      score.voterTerms(node(o), b, if (score.ranked) comp(node(o)) else Array.emptyDoubleArray)
  }

  /** `totals` plus `sgn` times each term `(part, v)`. */
  private def add(totals: Array[Double], terms: Seq[(Int, Double)], sgn: Double): Unit =
    terms.foreach { case (part, v) => totals(part) += sgn * v }

  /** The part totals of `terms`, one per part up to the largest. */
  private def totals(terms: Array[Seq[(Int, Double)]]): Array[Double] = {
    val out = new Array[Double](terms.iterator.flatMap(_.map(_._1)).maxOption.fold(0)(_ + 1))
    terms.foreach(add(out, _, 1.0))
    out
  }

  /** The score's finish on the part totals scaled by `scale`. */
  private def finishScaled(score: VoteScore, totals: Array[Double], scale: Double): Double =
    score.finish(ArraySeq.unsafeWrapArray(totals.map(_ * scale)))

  /** The annotated walks of `state`, collected into a working set. */
  private def collected(state: DataFrame, score: VoteScore, comp: Long => Array[Double]): Walks = {
    val rows = state.select(col("wid").cast("long"), col("path"), col("obs").cast("long"),
      col("b0end").cast("double"), col("covered")).collect()
    new Walks(WalkGen.packed(rows), rows.map(_.getLong(2)), rows.map(_.getDouble(3)), rows.map(_.getBoolean(4)),
      score, comp)
  }

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    *
    * The estimate of a cover state is the score's finish on the part
    * totals of the observations' terms, scaled by `scale`; the totals are
    * kept with each observation's terms. Each round scans every candidate `w` on an uncovered walk in
    * ascending id order: it sums `1 − b0end` over those walks per
    * observation, in ascending walk order, and from the moved estimates the
    * change `Δw` in the part totals that adding `w` causes, each
    * observation's new terms added and its old ones subtracted in ascending
    * observation order. The gain of `w` is the exact change of the
    * estimate, `finish(scale·(base + Δw)) − finish(scale·base)`, ties to
    * the smaller id; if no candidate is left, the smallest unpicked id is
    * picked. The picked node's walks are marked covered and its `Δw` is
    * added to the totals. Every round runs on the driver.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result =
    select(inst, score, k, collected(annotatedWalks, score, v => inst.competitors(v.toInt)), scale)

  /** [[select]] over `walks`, annotated with the target's initial opinions
    * `b0` (one per node) and keyed as [[WalkGen.annotate]] keys them.
    */
  private[walks] def select(inst: Instance, score: VoteScore, k: Int, walks: GraphOps.Packed,
                            b0: Array[Double], obsIsWalk: Boolean, scale: Double): Result = {
    val (obs, b0end) = WalkGen.annotation(walks, b0, obsIsWalk)
    select(inst, score, k,
      new Walks(walks, obs, b0end, new Array[Boolean](walks.size), score, v => inst.competitors(v.toInt)), scale)
  }

  private def select(inst: Instance, score: VoteScore, k: Int, walks: Walks, scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    val b = Array.tabulate(walks.obsCount)(walks.estimate)
    val terms = Array.tabulate(b.length)(o => walks.terms(o, b(o)))
    val base = totals(terms)
    // Node w's walks, ascending: onPath(at(w) until at(w + 1)).
    val nodes = walks.path.maxOption.fold(0)(_ + 1)
    val at = new Array[Int](nodes + 1)
    walks.path.foreach(w => at(w + 1) += 1)
    for (w <- 0 until nodes) at(w + 1) += at(w)
    val onPath = new Array[Int](walks.path.length)
    val fill = at.clone()
    for (i <- walks.b0end.indices; j <- walks.pathOff(i) until walks.pathOff(i + 1)) {
      onPath(fill(walks.path(j))) = i
      fill(walks.path(j)) += 1
    }
    val picked = new Array[Boolean](nodes)
    val dsum = new Array[Double](b.length)
    val touched, mark = new Array[Int](b.length)
    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]

    for (_ <- 1 to k) {
      val cur = finishScaled(score, base, scale)
      // The pick minimizes cur − finish under the total order of doubles, ties to the smaller id.
      var pick = -1
      var best = 0.0
      var delta = Array.emptyDoubleArray
      java.util.Arrays.fill(mark, -1)
      // A node on no uncovered walk changes no estimate: it is no candidate.
      for (w <- 0 until nodes if !picked(w)) {
        var m = 0
        for (j <- at(w) until at(w + 1)) {
          val i = onPath(j)
          if (!walks.covered(i)) {
            val o = walks.obsOf(i)
            if (mark(o) != w) { mark(o) = w; touched(m) = o; dsum(o) = 0.0; m += 1 }
            dsum(o) += 1 - walks.b0end(i)
          }
        }
        if (m > 0) {
          java.util.Arrays.sort(touched, 0, m)
          val dw = new Array[Double](base.length)
          for (x <- 0 until m) {
            val o = touched(x)
            add(dw, walks.terms(o, b(o) + dsum(o) / walks.walkCount(o)), 1.0)
            add(dw, terms(o), -1.0)
          }
          val key = cur - finishScaled(score, Array.tabulate(base.length)(p => base(p) + dw(p)), scale)
          if (pick < 0 || java.lang.Double.compare(key, best) < 0) { pick = w; best = key; delta = dw }
        }
      }
      if (pick < 0) seeds :+= (0L until inst.n).filterNot(seeds.contains).head
      else {
        seeds :+= pick.toLong
        picked(pick) = true
        val newlyCovered = (at(pick) until at(pick + 1)).map(onPath).filterNot(walks.covered)
        newlyCovered.foreach(walks.covered(_) = true)
        for (o <- newlyCovered.map(walks.obsOf).distinct) {
          b(o) = walks.estimate(o)
          terms(o) = walks.terms(o, b(o))
        }
        for (p <- base.indices) base(p) += delta(p)
      }
      ests :+= finishScaled(score, base, scale)
    }
    Result(seeds, ests)
  }
}
