package repro.walks

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.expts.RunningExample

/** Statistical validation of Thms 8–9 (walk estimates are unbiased) and of
  * the sketch estimator (Eq 35): with many walks and a fixed seed, the
  * estimates must match the exact FJ opinions / scores within a small
  * tolerance.
  */
class WalkEstimateSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark, t = 3)

  private def annotated(lambda: Int, seed: Long, i: Instance = inst) = {
    val starts = WalkGen.uniformStarts(spark, i.n, lambda)
    val walks = WalkGen.generate(spark, i.edges, Methods.targetStubbornness(i), starts, i.t, seed)
    WalkGen.annotate(walks, i, obsIsWalk = false)
  }

  private def estimates(state: org.apache.spark.sql.DataFrame): Map[Long, Double] =
    state.groupBy("obs")
      .agg((sum(when(col("covered"), 1.0).otherwise(col("b0end"))) / count(lit(1))).as("est"))
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap

  private def exactOpinions(seeds: Seq[Long]): Map[Long, Double] =
    inst.opinions(seeds).filter(col("cand") === 0)
      .collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap

  test("Thm 8: seedless walk estimates converge to the exact opinions") {
    val est = estimates(annotated(4000, seed = 5))
    val exact = exactOpinions(Nil)
    (0L until 4L).foreach { v =>
      assert(math.abs(est(v) - exact(v)) < 0.02, s"node $v: ${est(v)} vs ${exact(v)}")
    }
  }

  test("Thm 9: post-generation truncation is unbiased for a singleton seed") {
    val state = BoxedWalkGreedy.applyCover(annotated(4000, seed = 6), Seq(2L))
    val est = estimates(state)
    val exact = exactOpinions(Seq(2L))
    (0L until 4L).foreach { v =>
      assert(math.abs(est(v) - exact(v)) < 0.02, s"node $v: ${est(v)} vs ${exact(v)}")
    }
  }

  test("Thm 9: truncation is unbiased for a two-node seed set") {
    val state = BoxedWalkGreedy.applyCover(annotated(4000, seed = 7), Seq(0L, 3L))
    val est = estimates(state)
    val exact = exactOpinions(Seq(0L, 3L))
    (0L until 4L).foreach { v =>
      assert(math.abs(est(v) - exact(v)) < 0.02, s"node $v: ${est(v)} vs ${exact(v)}")
    }
  }

  test("a seeded start node estimates exactly 1") {
    val state = BoxedWalkGreedy.applyCover(annotated(50, seed = 8), Seq(3L))
    assert(estimates(state)(3L) == 1.0)
  }

  test("estimated cumulative score via walks matches the exact score") {
    val state = BoxedWalkGreedy.applyCover(annotated(4000, seed = 9), Seq(2L))
    val est = BoxedWalkGreedy.scoreEstimate(state, Cumulative, null, scale = 1.0)
    val exact = inst.targetScore(Cumulative, Seq(2L))
    assert(math.abs(est - exact) < 0.05, s"$est vs $exact")
  }

  test("estimated plurality score via walks matches the exact score") {
    val comp = inst.competitorOpinions().localCheckpoint(true)
    val state = BoxedWalkGreedy.applyCover(annotated(4000, seed = 10), Seq(2L))
    val est = BoxedWalkGreedy.scoreEstimate(state, Plurality(2), comp, scale = 1.0)
    val exact = inst.targetScore(Plurality(2), Seq(2L))
    assert(math.abs(est - exact) < 0.5, s"$est vs $exact")
  }

  test("estimated Copeland score via walks matches the exact score") {
    val comp = inst.competitorOpinions().localCheckpoint(true)
    val state = BoxedWalkGreedy.applyCover(annotated(4000, seed = 11), Seq(2L))
    val est = BoxedWalkGreedy.scoreEstimate(state, Copeland, comp, scale = 1.0)
    assert(est == inst.targetScore(Copeland, Seq(2L)))
  }

  test("Eq 35: the sketch estimator of the cumulative score is unbiased") {
    val theta = 20000L
    val starts = spark.createDataFrame(GraphOps.uniformNodes(inst.n, theta, seed = 12)).toDF("wid", "start")
    val walks = WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst),
      starts, inst.t, seed = 13)
    val state = WalkGen.annotate(walks, inst, obsIsWalk = true)
    val est = BoxedWalkGreedy.scoreEstimate(state, Cumulative, null, scale = inst.n.toDouble / theta)
    val exact = inst.targetScore(Cumulative, Nil)
    assert(math.abs(est - exact) < 0.1, s"$est vs $exact")
  }

  test("applyCover is idempotent and monotone") {
    val st0 = annotated(100, seed = 14)
    val st1 = BoxedWalkGreedy.applyCover(st0, Seq(2L))
    val st2 = BoxedWalkGreedy.applyCover(st1, Seq(2L))
    assert(st1.filter(col("covered")).count() == st2.filter(col("covered")).count())
    val st3 = BoxedWalkGreedy.applyCover(st1, Seq(3L))
    assert(st3.filter(col("covered")).count() >= st1.filter(col("covered")).count())
  }
}
