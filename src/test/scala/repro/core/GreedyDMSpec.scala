package repro.core

import repro.{JobCounter, SparkSpec}
import repro.expts.{Datasets, RunningExample}

class GreedyDMSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)
  // A slightly larger random instance for structural checks.
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny", "tiny", 24, 80, 3, 0, 0, 211), t = 3)

  test("greedy returns k distinct seeds") {
    val r = GreedyDM.select(rnd, Cumulative, 5)
    assert(r.seeds.length == 5 && r.seeds.distinct.length == 5)
    assert(r.seeds.forall(s => s >= 0 && s < rnd.n))
  }

  test("GreedyDM.select runs as many Spark jobs at t = 1 as at t = 8, plain and CELF") {
    for (celf <- Seq(false, true)) {
      def jobs(t: Int) = {
        val i = rnd.copy(t = t)
        i.targetScore(Cumulative, Nil) // collects the profile and the CSR, diffuses the horizon
        JobCounter(spark)(GreedyDM.select(i, Cumulative, 2, celf = celf))._2
      }
      val (one, eight) = (jobs(1), jobs(8))
      assert(one == eight, s"celf=$celf: t=1 $one jobs, t=8 $eight jobs")
      assert(one == 0, s"celf=$celf: t=1 $one jobs")
    }
  }

  test("k is validated") {
    intercept[IllegalArgumentException](GreedyDM.select(rnd, Cumulative, 0))
    intercept[IllegalArgumentException](GreedyDM.select(rnd, Cumulative, 25))
  }

  test("greedy score trajectory is non-decreasing (scores are monotone)") {
    val r = GreedyDM.select(rnd, Cumulative, 6)
    r.scores.sliding(2).foreach {
      case Seq(a, b) => assert(b >= a - 1e-9)
      case _         =>
    }
  }

  test("reported trajectory scores equal exact re-evaluation of prefixes") {
    for ((s, k) <- Seq(Cumulative -> 4, Plurality(3) -> 3, PApproval(2, 3) -> 3, Copeland -> 3)) {
      val r = GreedyDM.select(rnd, s, k)
      for (i <- 1 to k) {
        val exact = rnd.targetScore(s, r.seeds.take(i))
        assert(math.abs(r.scores(i - 1) - exact) < 1e-9, s"${s.name} prefix $i")
      }
    }
  }

  test("CELF returns the same cumulative trajectory as plain greedy") {
    val plain = GreedyDM.select(rnd, Cumulative, 5, celf = false)
    val lazyR = GreedyDM.select(rnd, Cumulative, 5, celf = true)
    // Seed sets may differ on exact ties; the achieved scores may not.
    plain.scores.zip(lazyR.scores).foreach {
      case (a, b) => assert(math.abs(a - b) < 1e-9)
    }
  }

  test("CELF with batch size 1 still matches plain greedy") {
    val plain = GreedyDM.select(rnd, Cumulative, 3, celf = false)
    val lazyR = GreedyDM.select(rnd, Cumulative, 3, celf = true, celfBatch = 1)
    plain.scores.zip(lazyR.scores).foreach {
      case (a, b) => assert(math.abs(a - b) < 1e-9)
    }
  }

  test("greedy with k=n seeds everything") {
    val r = GreedyDM.select(inst, Cumulative, 4)
    assert(r.seeds.toSet == Set(0L, 1L, 2L, 3L))
    assert(math.abs(r.scores.last - 4.0) < 1e-9)
  }

  test("greedy k=2 on the running example finds the optimal cumulative pair") {
    // Exhaustive check: {1,3} (nodes 0,2) is optimal at t=1.
    val pairs = for (a <- 0L until 4L; b <- (a + 1) until 4L) yield Seq(a, b)
    val best = pairs.map(p => p -> inst.targetScore(Cumulative, p)).maxBy(_._2)
    val r = GreedyDM.select(inst, Cumulative, 2)
    assert(math.abs(r.scores.last - best._2) < 1e-9,
      s"greedy ${r.seeds} vs optimal ${best._1}")
  }

  test("greedy works for every voting score on the running example") {
    val scores: Seq[VoteScore] = Seq(Cumulative, Plurality(2), PApproval(2, 2),
      PositionalPApproval(2, Seq(1.0, 0.4)), Copeland)
    for (s <- scores) {
      val r = GreedyDM.select(inst, s, 2)
      assert(r.seeds.length == 2, s.name)
      assert(r.scores.last >= inst.targetScore(s, Nil) - 1e-9, s.name)
    }
  }

  test("CELF's first pick costs no more jobs than plain greedy's plus one base score") {
    rnd.targetScore(Cumulative, Nil) // diffuse the seedless horizon outside the counts
    val (plain, plainJobs) = JobCounter(spark)(GreedyDM.select(rnd, Cumulative, 1))
    val (celf, celfJobs) = JobCounter(spark)(GreedyDM.select(rnd, Cumulative, 1, celf = true))
    val (_, baseJobs) = JobCounter(spark)(rnd.targetScore(Cumulative, Nil))
    assert(celf.seeds == plain.seeds)
    assert(celfJobs <= plainJobs + baseJobs, s"CELF $celfJobs, plain $plainJobs, base score $baseJobs")
  }

  test("CELF's first pick runs exactly as many jobs as plain greedy's") {
    rnd.targetScore(Cumulative, Nil) // diffuse the seedless horizon outside the counts
    val (plain, plainJobs) = JobCounter(spark)(GreedyDM.select(rnd, Cumulative, 1))
    val (celf, celfJobs) = JobCounter(spark)(GreedyDM.select(rnd, Cumulative, 1, celf = true))
    assert(celf == plain)
    assert(celfJobs == plainJobs, s"CELF $celfJobs, plain $plainJobs")
  }
}
