package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.expts.RunningExample

/** Exactness tests against the paper's hand-verified Table I (Fig 1 running
  * example): opinions at t=1 and all three reported scores, for all six
  * seed sets, must reproduce to 1e-9.
  */
class RunningExampleSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)

  private def opinionsOf(paperSeeds: Set[Int]): Seq[Double] = {
    val ops = inst.opinions(RunningExample.seedsOf(paperSeeds))
    ops.filter(col("cand") === 0).orderBy("node").collect().map(_.getDouble(2)).toSeq
  }

  test("graph is column-stochastic after normalization") {
    assert(GraphOps.isColumnStochastic(inst.edges, 4))
  }

  test("nodes without in-neighbors get weight-1 self-loops") {
    val loops = inst.edges.filter(col("src") === col("dst")).collect()
    assert(loops.map(_.getLong(0)).toSet == Set(0L, 1L))
    assert(loops.forall(_.getDouble(2) == 1.0))
  }

  for ((seeds, expected) <- RunningExample.expectedOpinions) {
    test(s"Table I opinions at t=1 for seed set $seeds") {
      val got = opinionsOf(seeds)
      got.zip(expected).foreach { case (g, e) => assert(math.abs(g - e) < 1e-9,
        s"seed set $seeds: got $got expected $expected") }
    }
  }

  test("competitor opinions at t=1 equal the stated Table I values") {
    val got = inst.opinions(Nil).filter(col("cand") === 1)
      .orderBy("node").collect().map(_.getDouble(2)).toSeq
    got.zip(RunningExample.competitorOpinions).foreach {
      case (g, e) => assert(math.abs(g - e) < 1e-9)
    }
  }

  for ((seeds, (cum, plu, cope)) <- RunningExample.expectedScores) {
    val s = RunningExample.seedsOf(seeds)
    test(s"Table I cumulative score for seed set $seeds") {
      assert(math.abs(inst.targetScore(Cumulative, s) - cum) < 1e-9)
    }
    test(s"Table I plurality score for seed set $seeds") {
      assert(math.abs(inst.targetScore(Plurality(2), s) - plu) < 1e-9)
    }
    test(s"Table I Copeland score for seed set $seeds") {
      assert(math.abs(inst.targetScore(Copeland, s) - cope) < 1e-9)
    }
  }

  test("Example 2: greedy k=1 picks user 1 for the cumulative score") {
    assert(GreedyDM.select(inst, Cumulative, 1).seeds == Seq(0L))
  }

  test("Example 2: greedy k=1 picks user 3 for the plurality score") {
    assert(GreedyDM.select(inst, Plurality(2), 1).seeds == Seq(2L))
  }

  test("Example 2: greedy k=1 picks user 3 or 4 for the Copeland score") {
    val s = GreedyDM.select(inst, Copeland, 1).seeds
    assert(s == Seq(2L) || s == Seq(3L))
    assert(inst.targetScore(Copeland, s) == 1.0)
  }

  test("§IV-D: the plurality submodularity-ratio counterexample holds") {
    // F({1}) = F({2}) = F(∅) = 2 but F({1,2}) = 3 ⇒ ψ = 0 (Eq 27).
    val plu = Plurality(2)
    val f0 = inst.targetScore(plu, Nil)
    val f1 = inst.targetScore(plu, Seq(0L))
    val f2 = inst.targetScore(plu, Seq(1L))
    val f12 = inst.targetScore(plu, Seq(0L, 1L))
    assert(f0 == 2.0 && f1 == 2.0 && f2 == 2.0 && f12 == 3.0)
    assert((f1 - f0) + (f2 - f0) < f12 - f0, "submodularity ratio is 0 here")
  }

  test("Example 3: Copeland is non-submodular on the running example") {
    val g1 = inst.targetScore(Copeland, Seq(1L)) - inst.targetScore(Copeland, Nil)
    val g2 = inst.targetScore(Copeland, Seq(0L, 1L)) - inst.targetScore(Copeland, Seq(0L))
    assert(g1 == 0.0 && g2 == 1.0, "adding user 2 gains more later — not submodular")
  }

  test("a seed outside 0 until n is rejected by every seeded entry point, naming the seed and n") {
    for (seed <- Seq(4L, -1L)) {
      val calls: Seq[() => Any] = Seq(() => inst.targetScore(Cumulative, Seq(0L, seed)),
        () => inst.wins(Plurality(2), Seq(seed)), () => inst.opinions(Seq(seed)),
        () => inst.targetProfile(Seq(seed)), () => Sandwich.favorableUsers(inst, 1, Seq(seed)))
      for (call <- calls) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"seed $seed") && e.getMessage.contains("[0, 4)"), e.getMessage)
      }
    }
  }
}
