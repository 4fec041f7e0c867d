package repro.core

import repro.{JobCounter, SparkSpec}
import repro.expts.{Datasets, RunningExample}

class WinSearchSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)
  private lazy val rnd = Datasets.instance(spark, Datasets.Spec("tiny-win", "tiny", 40, 160, 3, 0, 0, 431), t = 3)

  test("wins: plurality on the running example with no seeds is a tie, not a win") {
    // target plurality 2, competitor plurality 2 (users 3,4 prefer c2).
    assert(!inst.wins(Plurality(2), Nil))
  }

  test("wins: seeding user 3 makes the target the plurality winner") {
    assert(inst.wins(Plurality(2), Seq(2L)))
  }

  test("minSeedsToWin finds k*=1 for plurality via the greedy sequence") {
    val seq = GreedyDM.select(inst, Plurality(2), 3).seeds
    val res = WinSearch.minSeedsToWin(inst, Plurality(2), seq)
    assert(res.isDefined)
    val (k, s) = res.get
    assert(k == 1 && s == Seq(seq.head))
  }

  test("minSeedsToWin returns k*=0 when the target already wins") {
    // Cumulative: target 2.55 vs competitor 0.35+0.75+0.78+0.90 = 2.78 — target loses;
    // flip the target to candidate 1 which wins with no seeds.
    val flipped = inst.copy(q = 1)
    val res = WinSearch.minSeedsToWin(flipped, Cumulative, Seq(0L, 1L))
    assert(res.contains((0, Nil)))
  }

  test("minSeedsToWin for cumulative on the default target") {
    val seq = GreedyDM.select(inst, Cumulative, 4).seeds
    val res = WinSearch.minSeedsToWin(inst, Cumulative, seq)
    assert(res.isDefined)
    val (k, s) = res.get
    // k* is minimal: the prefix one shorter must lose.
    assert(inst.wins(Cumulative, s))
    if (k > 0) assert(!inst.wins(Cumulative, s.dropRight(1)))
  }

  test("minSeedsToWin returns None when even the full sequence loses") {
    // An unbeatable fully-stubborn competitor at opinion 1 everywhere.
    import spark.implicits._
    val prof = inst.profile.collect().map { r =>
      if (r.getInt(1) == 1) (r.getLong(0), 1, 1.0, 1.0)
      else (r.getLong(0), r.getInt(1), r.getDouble(2), r.getDouble(3))
    }.toSeq.toDF("node", "cand", "b0", "d")
    val hard = inst.copy(profile = prof)
    // Cumulative maxes at 4.0 for the target = competitor's 4.0: never strictly more.
    assert(WinSearch.minSeedsToWin(hard, Cumulative, Seq(0L, 1L, 2L, 3L)).isEmpty)
  }

  test("minSeedsToWin is the binary search over one wins probe per prefix") {
    /** The search with one `wins` probe per prefix it visits. */
    def probed(i: Instance, score: VoteScore, seedSeq: Seq[Long]): Option[(Int, Seq[Long])] =
      if (i.wins(score, Nil)) Some((0, Nil))
      else if (!i.wins(score, seedSeq)) None
      else {
        var (lo, hi) = (0, seedSeq.length)
        while (hi - lo > 1) { val mid = (lo + hi) / 2; if (i.wins(score, seedSeq.take(mid))) hi = mid else lo = mid }
        Some((hi, seedSeq.take(hi)))
      }
    for (q <- 0 until 3; score <- Seq(Cumulative, Plurality(3), Copeland);
         seedSeq <- Seq(Nil, 0L until 8L, 39L to 30L by -1)) {
      val target = rnd.copy(q = q)
      assert(WinSearch.minSeedsToWin(target, score, seedSeq) == probed(target, score, seedSeq),
        s"q=$q, ${score.name}, $seedSeq")
    }
  }

  test("minSeedsToWin runs as many Spark jobs at kMax = 2 as at kMax = 8") {
    val score = Plurality(3)
    // At most one candidate wins with no seeds; this also diffuses the seedless horizon before counting.
    val loser = (0 until 3).map(c => rnd.copy(q = c)).find(!_.wins(score, Nil)).get
    def jobs(kMax: Int) = JobCounter(spark)(WinSearch.minSeedsToWin(loser, score, 0L until kMax.toLong))._2
    val (two, eight) = (jobs(2), jobs(8))
    assert(two == eight, s"kMax = 2: $two jobs, kMax = 8: $eight")
    assert(two == 0, s"kMax = 2: $two jobs")
  }
}
