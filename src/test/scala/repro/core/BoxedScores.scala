package repro.core

import scala.collection.mutable

/** The boxed score algebra that [[VoteScore.addTerms]] replaced, kept as a
  * test reference: each score's terms of one voter as a sequence of
  * `(part, v)` pairs, summed per part into a `TreeMap` in voter order, and
  * the score's `finish` over the part totals in ascending part order.
  * Exact scores and walk estimates must equal it bit for bit.
  */
object BoxedScores {

  /** Additive terms `(part, v)` of one voter: user `node`, whose opinion of
    * the target is `b` and of the competitors `comp`, in ascending
    * candidate order (empty for a score that is not ranked). The score is
    * [[finish]] of the per-`part` sums of `v` over all voters.
    */
  def voterTerms(score: VoteScore, node: Long, b: Double, comp: Array[Double]): Seq[(Int, Double)] = score match {
    case Cumulative => Seq((0, b))
    case PositionalPApproval(p, weights) =>
      val w = weights.toArray
      val beta = 1 + comp.count(_ >= b)
      Seq((0, if (beta <= p && beta <= w.length) w(beta - 1) else 0.0))
    case RestrictedCumulative(members, _) => if (members(node)) Seq((0, b)) else Nil
    case Copeland => comp.indices.map(j => (j, if (b > comp(j)) 1.0 else if (b < comp(j)) -1.0 else 0.0))
  }

  /** The score given the per-part sums of [[voterTerms]]. */
  def finish(score: VoteScore, partTotals: Iterable[Double]): Double = score match {
    case RestrictedCumulative(_, factor) => factor * partTotals.sum
    case Copeland => partTotals.count(_ > 0).toDouble
    case _ => partTotals.sum
  }

  /** The part totals of voters `nodes` with target opinions `b` and
    * competitor opinions `comp`, summed in the given voter order, by part.
    * `comp` is only evaluated by ranked scores.
    */
  def partTotals(score: VoteScore, nodes: Array[Long], b: Array[Double],
                 comp: => Array[Array[Double]]): mutable.TreeMap[Int, Double] = {
    val c = if (score.ranked) comp else null
    val totals = mutable.TreeMap.empty[Int, Double]
    for (i <- nodes.indices; (part, v) <- voterTerms(score, nodes(i), b(i), if (c == null) Array.emptyDoubleArray else c(i)))
      totals(part) = totals.getOrElse(part, 0.0) + v
    totals
  }

  /** [[finish]] of the [[partTotals]] of voters `nodes`. */
  def total(score: VoteScore, nodes: Array[Long], b: Array[Double], comp: => Array[Array[Double]]): Double =
    finish(score, partTotals(score, nodes, b, comp).values)
}
