package repro.perfbench

import java.util.stream.IntStream
import repro.core.{Copeland, Cumulative, PositionalPApproval, VoteScore}

/** Plain-Scala reference for the FJ model and the voting scores, used to
  * check the program's outputs and to rate the quality of its seeds.
  *
  * It normalizes the raw edges itself (column-stochastic weights, a weight-1
  * self-loop for every node without in-edges) and stores them by
  * destination, so one FJ step is one pass over the in-edge arrays:
  * `b'(v) = (1 - d(v)) * sum_u w(u,v) b(u) + d(v) b0(v)`. The target is
  * candidate 0; seeding `s` sets its `b0` and `d` to 1.
  */
final class Reference(in: Inputs) {
  val n: Int = in.n
  val r: Int = in.r
  val t: Int = in.shape.t
  private val q = 0

  /** Normalized edges `(src, dst, w)` in (dst, src) order, self-loops included. */
  val edges: Array[(Int, Int, Double)] = {
    val summed = scala.collection.mutable.HashMap.empty[(Int, Int), Double]
    for (i <- in.src.indices if in.w(i) > 0)
      summed((in.src(i), in.dst(i))) = summed.getOrElse((in.src(i), in.dst(i)), 0.0) + in.w(i)
    val inSum = Array.fill(n)(0.0)
    summed.foreach { case ((_, v), x) => inSum(v) += x }
    val normal = summed.toArray.map { case ((u, v), x) => (u, v, x / inSum(v)) }
    val loops = (0 until n).filter(v => inSum(v) == 0.0).map(v => (v, v, 1.0))
    (normal ++ loops).sortBy(e => (e._2, e._1))
  }

  private val inPtr = {
    val p = Array.fill(n + 1)(0)
    edges.foreach(e => p(e._2 + 1) += 1)
    for (v <- 0 until n) p(v + 1) += p(v)
    p
  }
  private val inSrc = edges.map(_._1)
  private val inW = edges.map(_._3)

  /** Opinions of candidate `c` at the horizon, with `seeds` applied if `c` is the target. */
  def diffuse(c: Int, seeds: Iterable[Long] = Nil): Array[Double] = {
    val b0 = in.b0(c).clone()
    val d = in.d(c).clone()
    if (c == q) seeds.foreach { s => b0(s.toInt) = 1.0; d(s.toInt) = 1.0 }
    var b = b0.clone()
    var next = new Array[Double](n)
    for (_ <- 1 to t) {
      var v = 0
      while (v < n) {
        var acc = 0.0
        var e = inPtr(v)
        while (e < inPtr(v + 1)) { acc += inW(e) * b(inSrc(e)); e += 1 }
        next(v) = (1.0 - d(v)) * acc + d(v) * b0(v)
        v += 1
      }
      val tmp = b; b = next; next = tmp
    }
    b
  }

  /** Seedless competitor opinions; seeds for the target never change them. */
  private lazy val competitors: Array[Array[Double]] =
    Array.tabulate(r)(c => if (c == q) null else diffuse(c))

  /** Horizon opinions of every candidate given target seeds. */
  def opinions(seeds: Iterable[Long]): Array[Array[Double]] =
    Array.tabulate(r)(c => if (c == q) diffuse(q, seeds) else competitors(c))

  /** Score of candidate `c` on horizon opinions `ops`. */
  def score(sc: VoteScore, ops: Array[Array[Double]], c: Int): Double = sc match {
    case Cumulative => ops(c).sum
    case PositionalPApproval(p, weights) =>
      var total = 0.0
      for (v <- 0 until n) {
        var beta = 1
        for (x <- 0 until r if x != c && ops(x)(v) >= ops(c)(v)) beta += 1
        if (beta <= p) total += weights(beta - 1)
      }
      total
    case Copeland =>
      (0 until r).count { x =>
        x != c && {
          val wins = (0 until n).count(v => ops(c)(v) > ops(x)(v))
          val losses = (0 until n).count(v => ops(c)(v) < ops(x)(v))
          wins > losses
        }
      }.toDouble
    case other => throw new IllegalArgumentException(s"no reference for ${other.name}")
  }

  def targetScore(sc: VoteScore, seeds: Iterable[Long]): Double = score(sc, opinions(seeds), q)

  /** Eq 9: the target's score strictly exceeds every competitor's. */
  def wins(sc: VoteScore, seeds: Iterable[Long]): Boolean = {
    val ops = opinions(seeds)
    val tgt = score(sc, ops, q)
    (0 until r).forall(c => c == q || tgt > score(sc, ops, c))
  }

  /** `F(S ∪ {w})` for every node `w` outside `seeds` (NaN for members), in parallel. */
  def scenarioScores(sc: VoteScore, seeds: Seq[Long]): Array[Double] = {
    val out = Array.fill(n)(Double.NaN)
    val members = seeds.map(_.toInt).toSet
    IntStream.range(0, n).parallel().forEach { w =>
      if (!members(w)) out(w) = targetScore(sc, seeds :+ w.toLong)
    }
    out
  }

  /** Best `F(S ∪ {w})` over nodes outside `seeds`. */
  def bestNext(sc: VoteScore, seeds: Seq[Long]): Double =
    scenarioScores(sc, seeds).filterNot(_.isNaN).max

  /** Exact greedy (Algorithm 1), ties to the smallest node id. */
  def greedy(sc: VoteScore, k: Int): Vector[Long] =
    (1 to k).foldLeft(Vector.empty[Long]) { (seeds, _) =>
      val s = scenarioScores(sc, seeds)
      val best = s.indices.filterNot(i => s(i).isNaN).maxBy(i => (s(i), -i))
      seeds :+ best.toLong
    }

  /** Smallest winning prefix length of `seq`, if any prefix wins. */
  def minWinningPrefix(sc: VoteScore, seq: Seq[Long]): Option[Int] =
    (0 to seq.length).find(k => wins(sc, seq.take(k)))
}
