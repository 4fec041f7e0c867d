package repro.perfbench

import repro.core.VoteScore
import scala.collection.mutable

/** Output checks against the [[Reference]], and seed quality relative to the
  * reference's exact greedy. The program is deterministic for fixed inputs,
  * so later passes return the same seeds and hit the caches.
  */
final class Checker(val ref: Reference) {
  private val scoreCache = mutable.HashMap.empty[(VoteScore, Seq[Long]), Double]
  private val greedyCache = mutable.HashMap.empty[(VoteScore, Int), Vector[Long]]
  private val picksOk = mutable.HashMap.empty[(VoteScore, Seq[Long]), Option[String]]
  private val winCache = mutable.HashMap.empty[(VoteScore, Seq[Long]), Boolean]

  def refScore(sc: VoteScore, seeds: Seq[Long]): Double =
    scoreCache.getOrElseUpdate((sc, seeds), ref.targetScore(sc, seeds))

  def refGreedy(sc: VoteScore, k: Int): Vector[Long] =
    greedyCache.getOrElseUpdate((sc, k), ref.greedy(sc, k))

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** k distinct in-range seeds, and each exact-greedy pick reaches the
    * reference's best score for its round (ties allowed). Returns the seed
    * quality: reference score of the seeds over that of the reference greedy.
    */
  def selection(q: Query, p: Picked): Either[String, Double] = {
    val s = p.seeds
    if (s.size != q.k || s.distinct.size != s.size || s.exists(x => x < 0 || x >= ref.n))
      return Left(s"${q.label}: expected ${q.k} distinct seeds in [0, ${ref.n}), got $s")
    p.greedyPicks.flatMap { case (sc, picks) =>
      picksOk.getOrElseUpdate((sc, picks), picks.indices.collectFirst {
        case i if refScore(sc, picks.take(i + 1)) < ref.bestNext(sc, picks.take(i)) - 1e-9 * math.max(1.0, refScore(sc, picks.take(i + 1))) =>
          s"${q.label}: greedy pick ${i + 1} (${picks(i)}) is below the round's best ${sc.name} score"
      })
    }.toLeft(refScore(q.score, s) / refScore(q.score, refGreedy(q.score, q.k)))
  }

  /** The program's exact score matches the reference within 1e-9. */
  def evaluation(q: Query, seeds: Seq[Long], value: Double): Option[String] = {
    val want = refScore(q.score, seeds)
    if (close(value, want)) None else Some(s"${q.label}: exact score $value, reference $want")
  }

  /** k* wins and k*-1 loses under the reference. Returns k*_ref / k*, where
    * k*_ref is the smallest winning prefix of the reference greedy sequence.
    */
  def win(q: Query, seq: Seq[Long], found: Option[(Int, Seq[Long])]): Either[String, Double] =
    found match {
      case None => Left(s"${q.label}: no winning prefix within ${seq.size} seeds")
      case Some((k, prefix)) =>
        if (prefix != seq.take(k)) Left(s"${q.label}: returned set is not the $k-prefix")
        else if (!winsRef(q.score, seq.take(k))) Left(s"${q.label}: k*=$k does not win under the reference")
        else if (k > 0 && winsRef(q.score, seq.take(k - 1))) Left(s"${q.label}: k*-1=${k - 1} already wins")
        else refKStar(q.score, q.k) match {
          case None => Left(s"${q.label}: the reference greedy does not win within ${q.k} seeds")
          case Some(kRef) => Right(if (k == 0) 1.0 else kRef.toDouble / k)
        }
    }

  private def winsRef(sc: VoteScore, seeds: Seq[Long]): Boolean =
    winCache.getOrElseUpdate((sc, seeds), ref.wins(sc, seeds))

  def refKStar(sc: VoteScore, kMax: Int): Option[Int] =
    ref.minWinningPrefix(sc, refGreedy(sc, kMax))

  /** Spark's seedless horizon opinions `(node, cand, b)` match the reference within 1e-9. */
  def opinions(rows: Array[(Long, Int, Double)]): Option[String] = {
    val want = ref.opinions(Nil)
    if (rows.length != ref.n * ref.r) return Some(s"diffuse: ${rows.length} rows, expected ${ref.n * ref.r}")
    rows.collectFirst {
      case (v, c, b) if math.abs(b - want(c)(v.toInt)) > 1e-9 =>
        s"diffuse: node $v candidate $c has $b, reference ${want(c)(v.toInt)}"
    }
  }

  /** Spark's normalized edges equal the reference's, weights within 1e-12. */
  def normalized(rows: Array[(Long, Long, Double)]): Option[String] = {
    val got = rows.sortBy(e => (e._2, e._1))
    if (got.length != ref.edges.length) Some(s"normalize: ${got.length} edges, expected ${ref.edges.length}")
    else got.zip(ref.edges).collectFirst {
      case ((u, v, w), (ru, rv, rw)) if u != ru || v != rv || math.abs(w - rw) > 1e-12 =>
        s"normalize: edge ($u,$v,$w) differs from reference ($ru,$rv,$rw)"
    }
  }
}
