package repro.walks

import org.apache.spark.sql.DataFrame
import repro.{JobCounter, SparkSpec}
import repro.core._
import repro.expts.{Datasets, RunningExample}

class WalkGreedySpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-wg", "tiny", 25, 90, 3, 0, 0, 419), t = 3)

  test("RW greedy k=1 reproduces Example 2 for the cumulative score (user 1)") {
    val r = Methods.rw(inst, Cumulative, 1, seed = 21, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(0L))
  }

  test("RW greedy k=1 reproduces Example 2 for the plurality score (user 3)") {
    val r = Methods.rw(inst, Plurality(2), 1, seed = 22, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(2L))
  }

  test("RW greedy k=1 reproduces Example 2 for the Copeland score (user 3 or 4)") {
    val r = Methods.rw(inst, Copeland, 1, seed = 23, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(2L) || r.seeds == Seq(3L))
    assert(inst.targetScore(Copeland, r.seeds) == 1.0)
  }

  test("RS greedy k=1 finds the optimal cumulative seed with enough sketches") {
    val r = Methods.rs(inst, Cumulative, 1, seed = 24, thetaOverride = Some(20000L))
    assert(r.seeds == Seq(0L))
  }

  test("RS greedy k=1 finds the optimal plurality seed with enough sketches") {
    val r = Methods.rs(inst, Plurality(2), 1, seed = 25, thetaOverride = Some(20000L))
    assert(r.seeds == Seq(2L))
  }

  test("RW returns k distinct valid seeds on a random instance") {
    val r = Methods.rw(rnd, Cumulative, 5, seed = 26, lambdaOverride = Some(30))
    assert(r.seeds.length == 5 && r.seeds.distinct.length == 5)
    assert(r.seeds.forall(s => s >= 0 && s < rnd.n))
  }

  test("RS returns k distinct valid seeds on a random instance") {
    val r = Methods.rs(rnd, Plurality(3), 3, seed = 27, thetaOverride = Some(2000L))
    assert(r.seeds.length == 3 && r.seeds.distinct.length == 3)
  }

  test("RW estimated score trajectory is non-decreasing") {
    val r = Methods.rw(rnd, Cumulative, 5, seed = 28, lambdaOverride = Some(50))
    r.estScores.sliding(2).foreach {
      case Seq(a, b) => assert(b >= a - 1e-9)
      case _         =>
    }
  }

  /** The last estimate of a greedy run equals the estimator re-run on the
    * final cover state: each round's gain is the estimator's exact change.
    */
  private def assertTrajectoryEndsAtEstimate(score: VoteScore, starts: DataFrame,
                                             obsIsWalk: Boolean, scale: Double): Unit = {
    val walks = WalkGen.generate(spark, rnd.edges, Methods.targetStubbornness(rnd), starts, rnd.t, 32)
    val state = WalkGen.annotate(walks, rnd, obsIsWalk)
    val r = WalkGreedy.select(rnd, score, 3, state, scale)
    val est = WalkGreedy.scoreEstimate(WalkGreedy.applyCover(state, r.seeds), score,
      rnd.competitorOpinions(), scale)
    assert(math.abs(r.estScores.last - est) < 1e-9, s"${score.name}: ${r.estScores.last} vs $est")
  }

  test("RW cumulative estimate trajectory ends at the estimator's value") {
    assertTrajectoryEndsAtEstimate(Cumulative, WalkGen.uniformStarts(spark, rnd.n, 30), false, 1.0)
  }

  test("RW plurality estimate trajectory ends at the estimator's value") {
    for (score <- Seq(Plurality(3), Copeland))
      assertTrajectoryEndsAtEstimate(score, WalkGen.uniformStarts(spark, rnd.n, 30), false, 1.0)
  }

  test("RS Copeland estimate trajectory ends at the estimator's value") {
    val theta = 1000L
    for (score <- Seq(Copeland, PositionalPApproval(2, Seq(1.0, 0.5, 0.0))))
      assertTrajectoryEndsAtEstimate(score, WalkGen.sketchStarts(spark, rnd.n, theta, 33),
        true, rnd.n.toDouble / theta)
  }

  test("RW cumulative seed quality approaches exact greedy (within 10%)") {
    val dm = GreedyDM.select(rnd, Cumulative, 3, celf = true)
    val rw = Methods.rw(rnd, Cumulative, 3, seed = 29, lambdaOverride = Some(400))
    val fRw = rnd.targetScore(Cumulative, rw.seeds)
    assert(fRw >= 0.9 * dm.scores.last, s"RW $fRw vs DM ${dm.scores.last}")
  }

  test("RW plurality seed quality approaches exact greedy (within 25%)") {
    val dm = GreedyDM.select(rnd, Plurality(3), 3)
    val rw = Methods.rw(rnd, Plurality(3), 3, seed = 30, lambdaOverride = Some(400))
    val fRw = rnd.targetScore(Plurality(3), rw.seeds)
    assert(fRw >= 0.75 * dm.scores.last, s"RW $fRw vs DM ${dm.scores.last}")
  }

  test("RW Copeland gains are consistent: picked seeds never lower the score") {
    val rw = Methods.rw(rnd, Copeland, 2, seed = 31, lambdaOverride = Some(200))
    val f0 = rnd.targetScore(Copeland, Nil)
    assert(rnd.targetScore(Copeland, rw.seeds) >= f0 - 1e-9)
  }

  test("RW estimates a restricted cumulative score node by node") {
    import org.apache.spark.sql.functions._
    val state = WalkGreedy.applyCover(WalkGen.annotate(
      WalkGen.generate(spark, rnd.edges, Methods.targetStubbornness(rnd),
        WalkGen.uniformStarts(spark, rnd.n, 20), rnd.t, 34),
      rnd, obsIsWalk = false), Seq(4L))
    val nodes = Seq(1L, 4L, 7L, 12L)
    val est = WalkGreedy.scoreEstimate(state,
      RestrictedCumulative(spark.createDataFrame(nodes.map(Tuple1(_))).toDF("node"), 0.75), null, 1.0)
    val perNode = state.filter(col("start").isin(nodes: _*)).groupBy("start")
      .agg(avg(when(col("covered"), 1.0).otherwise(col("b0end")))).collect().map(_.getDouble(1))
    assert(perNode.length == nodes.length)
    assert(math.abs(est - 0.75 * perNode.sum) < 1e-12, s"$est vs ${0.75 * perNode.sum}")
  }

  test("select runs as many Spark jobs for k = 1 as for k = 5: one collect") {
    val state = WalkGen.annotate(WalkGen.generate(spark, rnd.edges, Methods.targetStubbornness(rnd),
      WalkGen.uniformStarts(spark, rnd.n, 10), rnd.t, 35), rnd, obsIsWalk = false).localCheckpoint(true)
    rnd.competitors // diffused before counting
    for (score <- Seq(Cumulative, Copeland)) {
      def jobs(k: Int) = JobCounter(spark)(WalkGreedy.select(rnd, score, k, state, 1.0))._2
      assert(Seq(jobs(1), jobs(5)) == Seq(1, 1), score.name)
    }
  }

  test("k validation") {
    val state = WalkGen.annotate(
      WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst),
        WalkGen.uniformStarts(spark, inst.n, 2), inst.t, 1),
      inst, obsIsWalk = false)
    intercept[IllegalArgumentException](WalkGreedy.select(inst, Cumulative, 0, state, 1.0))
  }
}
