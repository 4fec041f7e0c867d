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
  * The walks reach the driver once, as packed node lists
  * ([[GraphOps.Packed]]), and every round runs there over primitive arrays:
  * the walks in `wid` order, each observation's walks, an index from each
  * node to the walks whose path holds it, and the score's part totals
  * indexed by part. Ranking-based scores additionally use the competitors'
  * exact horizon opinions, computed once by direct matrix-vector
  * multiplication (§V-B): each observation is one voter of the score's
  * [[VoteScore.addTerms]].
  */
object WalkGreedy {

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Whether `keys` is non-decreasing. */
  private def sorted(keys: Array[Long]): Boolean = {
    var i = 1
    while (i < keys.length && keys(i - 1) <= keys(i)) i += 1
    i >= keys.length
  }

  /** Indexes of `keys` in ascending key order, equal keys in index order. */
  private def ascending(keys: Array[Long]): Array[Int] =
    if (sorted(keys)) Array.range(0, keys.length) else keys.indices.sortBy(keys(_)).toArray

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
    * added to the totals. Every round runs on the driver, over buffers
    * allocated once.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result = {
    val rows = annotatedWalks.select(col("wid").cast("long"), col("path"), col("obs").cast("long"),
      col("b0end").cast("double"), col("covered")).collect().sortBy(_.getLong(0))
    select(inst, score, k, WalkGen.packed(rows), rows.map(_.getLong(2)), rows.map(_.getDouble(3)),
      rows.map(_.getBoolean(4)), scale)
  }

  /** [[select]] over `walks` in ascending `wid` order, annotated with the target's initial opinions
    * `b0` (one per node) and keyed as [[WalkGen.annotate]] keys them.
    */
  private[walks] def select(inst: Instance, score: VoteScore, k: Int, walks: GraphOps.Packed,
                            b0: Array[Double], obsIsWalk: Boolean, scale: Double): Result = {
    val (obs, b0end) = WalkGen.annotation(walks, b0, obsIsWalk)
    select(inst, score, k, walks, obs, b0end, new Array[Boolean](walks.size), scale)
  }

  /** [[select]] over `walks` in ascending `wid` order, with observation keys, end opinions and cover
    * flags in the same order. An observation's voter is its walks' start node, at the mean of their values.
    */
  private def select(inst: Instance, score: VoteScore, k: Int, walks: GraphOps.Packed, key: Array[Long],
                     b0end: Array[Double], covered: Array[Boolean], scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    require(sorted(walks.roots), "walks must be in ascending wid order")
    val (n, size, parts) = (inst.n.toInt, walks.size, score.parts(inst.r))
    // Node w's walks, ascending and each once: onPath(at(w) until at(w + 1)), counted first.
    val (at, seen) = (new Array[Int](n + 1), new Array[Int](n))
    for (i <- 0 until size) {
      var j = walks.off(i)
      while (j < walks.off(i + 1)) { // while loops: these run once per step of every walk
        val v = walks.nodes(j)
        if (seen(v) != i + 1) { seen(v) = i + 1; at(v + 1) += 1 }
        j += 1
      }
    }
    for (w <- 0 until n) at(w + 1) += at(w)
    val (onPath, fill) = (new Array[Int](at(n)), at.clone())
    for (i <- 0 until size) {
      var j = walks.off(i)
      while (j < walks.off(i + 1)) {
        val v = walks.nodes(j)
        if (seen(v) != -i - 1) { seen(v) = -i - 1; onPath(fill(v)) = i; fill(v) += 1 }
        j += 1
      }
    }
    // Walk i is one of observation o = obsOf(i)'s walks byObs(obsOff(o) until obsOff(o + 1)), ascending,
    // which start at o's voter node(o).
    val (byObs, obsOf, obsOff) = (ascending(key), new Array[Int](size), new Array[Int](size + 1))
    val node = new Array[Int](size)
    var obsCount = 0
    for (j <- 0 until size) {
      if (j == 0 || key(byObs(j)) != key(byObs(j - 1))) {
        obsOff(obsCount) = j; node(obsCount) = walks.nodes(walks.off(byObs(j))); obsCount += 1
      }
      obsOf(byObs(j)) = obsCount - 1
    }
    obsOff(obsCount) = size
    val comp = if (score.ranked) inst.competitors else null
    def addTerms(totals: Array[Double], at: Int, o: Int, b: Double): Unit =
      score.addTerms(totals, at, node(o), b, if (comp == null) Array.emptyDoubleArray else comp(node(o)))

    // Observation o's estimate b(o) is the mean of its walk values, in walk order, with terms terms(o * parts …).
    val (b, terms, base) = (new Array[Double](obsCount), new Array[Double](obsCount * parts), new Array[Double](parts))
    def estimate(o: Int): Unit = {
      var (s, j) = (0.0, obsOff(o))
      while (j < obsOff(o + 1)) { s += (if (covered(byObs(j))) 1.0 else b0end(byObs(j))); j += 1 }
      b(o) = s / (obsOff(o + 1) - obsOff(o))
      java.util.Arrays.fill(terms, o * parts, (o + 1) * parts, 0.0)
      addTerms(terms, o * parts, o, b(o))
    }
    for (o <- 0 until obsCount) {
      estimate(o)
      for (p <- 0 until parts) base(p) += terms(o * parts + p)
    }
    val dsum = new Array[Double](obsCount)
    val touched, mark = new Array[Int](obsCount)
    var stamp = 0
    val dw = new Array[Double](parts) // Δ of the last candidate passed to delta
    val next = new Array[Double](parts) // the scaled totals that `scaled` finishes

    /** Sets `dw` to the change in the part totals that adding `w` causes, and `touched` to the
      * observations whose estimates it moves, ascending; returns their count.
      */
    def delta(w: Int): Int = {
      stamp += 1
      var m = 0
      var j = at(w)
      while (j < at(w + 1)) { // while loops: these run for every candidate of every round
        val i = onPath(j)
        if (!covered(i)) {
          val o = obsOf(i)
          if (mark(o) != stamp) { mark(o) = stamp; touched(m) = o; dsum(o) = 0.0; m += 1 }
          dsum(o) += 1 - b0end(i)
        }
        j += 1
      }
      java.util.Arrays.sort(touched, 0, m)
      java.util.Arrays.fill(dw, 0.0)
      var x = 0
      while (x < m) {
        val o = touched(x)
        addTerms(dw, 0, o, b(o) + dsum(o) / (obsOff(o + 1) - obsOff(o)))
        var p = 0
        while (p < parts) { dw(p) -= terms(o * parts + p); p += 1 }
        x += 1
      }
      m
    }

    /** The score's finish on the part totals, plus `dw` if `moved`, scaled by `scale`. */
    def scaled(moved: Boolean): Double = {
      var p = 0
      while (p < parts) { next(p) = (if (moved) base(p) + dw(p) else base(p)) * scale; p += 1 }
      score.finish(next)
    }

    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]
    for (_ <- 1 to k) {
      val cur = scaled(moved = false)
      // The pick minimizes cur − estimate under the total order of doubles, ties to the smaller id.
      var pick = -1
      var best = 0.0
      for (w <- 0 until n) { // a node on no uncovered walk (a pick, say) changes no estimate: it is no candidate
        if (delta(w) > 0) {
          val loss = cur - scaled(moved = true)
          if (pick < 0 || java.lang.Double.compare(loss, best) < 0) { pick = w; best = loss }
        }
      }
      if (pick < 0) seeds :+= (0L until inst.n).filterNot(seeds.contains).head
      else {
        seeds :+= pick.toLong
        val moved = delta(pick)
        for (p <- 0 until parts) base(p) += dw(p)
        for (j <- at(pick) until at(pick + 1)) covered(onPath(j)) = true
        for (x <- 0 until moved) estimate(touched(x))
      }
      ests :+= scaled(moved = false)
    }
    Result(seeds, ests)
  }
}
