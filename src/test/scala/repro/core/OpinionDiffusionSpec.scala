package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.DataFrame
import repro.{JobCounter, Oracle, SparkSpec}
import repro.expts.{Datasets, RunningExample}

class OpinionDiffusionSpec extends SparkSpec {
  import spark.implicits._

  private lazy val inst = RunningExample.instance(spark)
  // A random instance with r=3 and t=4 for the kernel-level checks.
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("ref", "ref", 40, 200, 3, 0, 0, 307), t = 4)

  private def opinionMap(ops: org.apache.spark.sql.DataFrame, cand: Int): Map[Long, Double] =
    ops.filter(col("cand") === cand).collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap

  test("t=0 returns the initial opinions") {
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, inst.profile, 0), 0)
    assert(got == Map(0L -> 0.40, 1L -> 0.80, 2L -> 0.60, 3L -> 0.90))
  }

  test("horizon t rejects negative values") {
    intercept[IllegalArgumentException] {
      OpinionDiffusion.diffuse(inst.edges, inst.profile, -1)
    }
  }

  test("one FJ step matches the closed-form update of Example 1") {
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, inst.profile, 1), 0)
    // b3' = 1/2[b3 + (b1+b2)/2], b4' = 1/2[b3 + b4] at t=1 (d=0.5, b = b0).
    assert(math.abs(got(2L) - 0.5 * (0.60 + 0.5 * (0.40 + 0.80))) < 1e-12)
    assert(math.abs(got(3L) - 0.5 * (0.60 + 0.90)) < 1e-12)
  }

  test("two FJ steps anchor to the *initial* opinion (FJ, not self-loop DeGroot)") {
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, inst.profile, 2), 0)
    // b3'' = (1-d3)(b1'+b2')/2 + d3*b3^(0) with b' from t=1.
    val b3t2 = 0.5 * (0.40 + 0.80) / 2 * 1.0 + 0.5 * 0.60
    val b4t2 = 0.5 * 0.60 /* b3 at t=1 */ + 0.5 * 0.90
    assert(math.abs(got(2L) - b3t2) < 1e-12)
    assert(math.abs(got(3L) - b4t2) < 1e-12)
  }

  test("fully stubborn users never move (candidate 1 in the example)") {
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, inst.profile, 7), 1)
    RunningExample.competitorOpinions.zipWithIndex.foreach {
      case (e, i) => assert(math.abs(got(i.toLong) - e) < 1e-12)
    }
  }

  test("nodes with no in-neighbors retain their initial opinions at any horizon") {
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, inst.profile, 9), 0)
    assert(got(0L) == 0.40 && got(1L) == 0.80)
  }

  test("DeGroot special case: zero stubbornness adopts the in-neighbor average") {
    val prof = inst.profile.select(col("node"), col("cand"), col("b0"),
      when(col("cand") === 0, 0.0).otherwise(col("d")).as("d"))
    val got = opinionMap(OpinionDiffusion.diffuse(inst.edges, prof, 1), 0)
    assert(math.abs(got(2L) - 0.5 * (0.40 + 0.80)) < 1e-12)
    assert(math.abs(got(3L) - 0.60) < 1e-12)
  }

  test("opinions stay in [0,1] over a long horizon") {
    val ops = OpinionDiffusion.diffuse(inst.edges, inst.profile, 25)
    val bad = ops.filter(col("b") < -1e-12 || col("b") > 1 + 1e-12).count()
    assert(bad == 0)
  }

  test("applySeeds pins b0 and d to 1 for the target only") {
    val p = JoinDiffusion.applySeeds(inst.profile, q = 0, seeds = Seq(2L)).collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> (r.getDouble(2), r.getDouble(3))).toMap
    assert(p((2L, 0)) == ((1.0, 1.0)))
    assert(p((2L, 1)) == ((0.78, 1.0))) // competitor row untouched
    assert(p((0L, 0)) == ((0.40, 0.0)))
  }

  test("a seeded node stays at opinion 1 for all horizons") {
    for (t <- Seq(1, 3, 8)) {
      val got = opinionMap(inst.copy(t = t).opinions(Seq(2L)), 0)
      assert(got(2L) == 1.0, s"t=$t")
    }
  }

  test("the seedless horizon is diffused once per instance") {
    assert(inst.opinions(Nil) eq inst.opinions(Nil))
  }

  test("a copied instance diffuses its own seedless horizon") {
    // Competitor 1 made fully stubborn at opinion 1 everywhere.
    val prof = inst.profile.collect().map { r =>
      if (r.getInt(1) == 1) (r.getLong(0), 1, 1.0, 1.0)
      else (r.getLong(0), r.getInt(1), r.getDouble(2), r.getDouble(3))
    }.toSeq.toDF("node", "cand", "b0", "d")
    val copied = inst.copy(profile = prof)
    assert(!(copied.opinions(Nil) eq inst.opinions(Nil)))
    assert(opinionMap(copied.opinions(Nil), 1) == (0L until 4L).map(_ -> 1.0).toMap)
    assert(opinionMap(copied.competitorOpinions(), 1) == (0L until 4L).map(_ -> 1.0).toMap)
    assert(opinionMap(inst.competitorOpinions(), 1) != opinionMap(copied.competitorOpinions(), 1))
  }

  test("opinions are non-decreasing in the seed set (monotonicity, §III-B)") {
    val base = opinionMap(inst.opinions(Nil), 0)
    val withSeed = opinionMap(inst.opinions(Seq(0L)), 0)
    (0L until 4L).foreach(v => assert(withSeed(v) >= base(v) - 1e-12))
    val bigger = opinionMap(inst.opinions(Seq(0L, 1L)), 0)
    (0L until 4L).foreach(v => assert(bigger(v) >= withSeed(v) - 1e-12))
  }

  test("scenario-vectorized diffusion equals one-at-a-time diffusion") {
    val scen = Seq(0L, 1L, 2L, 3L).toDF("scen")
    val vect = OpinionDiffusion.diffuseScenarios(inst.edges, inst.targetProfile(Nil), scen, 1)
      .collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    for (s <- 0L until 4L) {
      val solo = opinionMap(inst.opinions(Seq(s)), 0)
      for (v <- 0L until 4L)
        assert(math.abs(vect((s, v)) - solo(v)) < 1e-12, s"scenario $s node $v")
    }
  }

  test("scenario diffusion stacks on top of an existing seed set") {
    val scen = Seq(1L).toDF("scen")
    val vect = OpinionDiffusion.diffuseScenarios(inst.edges, inst.targetProfile(Seq(0L)), scen, 1)
      .collect().map(r => r.getLong(1) -> r.getDouble(2)).toMap
    val expected = opinionMap(inst.opinions(Seq(0L, 1L)), 0)
    (0L until 4L).foreach(v => assert(math.abs(vect(v) - expected(v)) < 1e-12))
  }

  test("one FJ step matches DuckDB SQL") {
    val prof = inst.profile.filter(col("cand") === 0).select("node", "b0", "d")
    val got = OpinionDiffusion.diffuse(inst.edges, inst.profile, 1)
      .filter(col("cand") === 0)
      .select(col("node").cast("long").as("node"), round(col("b"), 6).as("b"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(p.node AS BIGINT) AS node,
        |       ROUND((1 - CAST(p.d AS DOUBLE)) * SUM(CAST(e.w AS DOUBLE) * CAST(p2.b0 AS DOUBLE))
        |             + CAST(p.d AS DOUBLE) * CAST(p.b0 AS DOUBLE), 6) AS b
        |FROM prof p
        |JOIN edges e ON CAST(e.dst AS BIGINT) = CAST(p.node AS BIGINT)
        |JOIN prof p2 ON CAST(p2.node AS BIGINT) = CAST(e.src AS BIGINT)
        |GROUP BY p.node, p.d, p.b0""".stripMargin,
      "edges" -> inst.edges,
      "prof" -> prof,
    )
  }

  private def rowsOf(df: DataFrame): Map[(Long, Long), Double] =
    df.collect().map(r => (r.getAs[Number](0).longValue, r.getAs[Number](1).longValue) -> r.getDouble(2)).toMap

  private def assertClose(got: Map[(Long, Long), Double], want: Map[(Long, Long), Double]): Unit = {
    assert(got.keySet == want.keySet)
    want.foreach { case (key, b) => assert(math.abs(got(key) - b) < 1e-12, s"row $key") }
  }

  test("diffuse agrees with the join+groupBy kernel it replaced, with and without seeds") {
    for (seeds <- Seq(Nil, Seq(3L, 17L))) {
      val prof = JoinDiffusion.applySeeds(rnd.profile, rnd.q, seeds)
      assertClose(rowsOf(OpinionDiffusion.diffuse(rnd.edges, prof, rnd.t)),
        rowsOf(JoinDiffusion.diffuse(rnd.edges, prof, rnd.t)))
    }
  }

  test("diffuseScenarios agrees with the join+groupBy kernel it replaced") {
    val scen = (0L until rnd.n).toDF("scen")
    val prof = rnd.targetProfile(Seq(3L, 17L))
    assertClose(rowsOf(OpinionDiffusion.diffuseScenarios(rnd.edges, prof, scen, rnd.t)),
      rowsOf(JoinDiffusion.diffuseScenarios(rnd.edges, prof, scen, rnd.t)))
  }

  test("a scenario id outside 0 until n pins no node: its rows equal diffuse's target rows") {
    val seeds = Seq(3L, 17L)
    val noSeed = OpinionDiffusion.diffuseScenarios(rnd.edges, rnd.targetProfile(seeds),
      Seq(5L, -1L, rnd.n).toDF("scen"), rnd.t).filter(col("scen") =!= 5L)
      .collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    val want = opinionMap(OpinionDiffusion.diffuse(rnd.edges,
      JoinDiffusion.applySeeds(rnd.profile, rnd.q, seeds), rnd.t), rnd.q)
    assert(noSeed.size == 2 * rnd.n)
    for (scen <- Seq(-1L, rnd.n); v <- 0L until rnd.n)
      assert(math.abs(noSeed((scen, v)) - want(v)) < 1e-12, s"scenario $scen node $v")
  }

  test("diffusion results are bit-identical across edge and shuffle partitioning") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def run(edgeParts: Int, shuffleParts: Int) = {
      spark.conf.set(key, shuffleParts.toLong)
      val edges = rnd.edges.repartition(edgeParts)
      (rowsOf(OpinionDiffusion.diffuse(edges, rnd.profile, rnd.t)),
        rowsOf(OpinionDiffusion.diffuseScenarios(edges, rnd.targetProfile(Seq(3L)),
          (0L until rnd.n).toDF("scen"), rnd.t)))
    }
    try assert(run(1, 4) == run(7, 64))
    finally spark.conf.set(key, saved)
  }

  test("a duplicate profile row is rejected by name") {
    val dup = inst.profile.unionByName(inst.profile.filter(col("node") === 2 && col("cand") === 0))
    val e1 = intercept[IllegalArgumentException](OpinionDiffusion.diffuse(inst.edges, dup, 1))
    assert(e1.getMessage.contains("duplicate profile row (node=2, cand=0)"))
    val target = dup.filter(col("cand") === 0).select("node", "b0", "d")
    val e2 = intercept[IllegalArgumentException](
      OpinionDiffusion.diffuseScenarios(inst.edges, target, Seq(1L).toDF("scen"), 1))
    assert(e2.getMessage.contains("duplicate profile row (node=2)"))
  }

  test("a missing profile row is rejected by name") {
    val gap = inst.profile.filter(!(col("node") === 1 && col("cand") === 1))
    val e1 = intercept[IllegalArgumentException](OpinionDiffusion.diffuse(inst.edges, gap, 1))
    assert(e1.getMessage.contains("missing profile row (node=1, cand=1)"))
    val target = inst.profile.filter(col("cand") === 0 && col("node") =!= 1).select("node", "b0", "d")
    val e2 = intercept[IllegalArgumentException](
      OpinionDiffusion.diffuseScenarios(inst.edges, target, Seq(0L).toDF("scen"), 1))
    assert(e2.getMessage.contains("missing profile row (node=1)"))
  }

  test("a profile row with b0 or d outside [0, 1] is rejected by name") {
    val bad = inst.profile.withColumn("b0",
      when(col("node") === 2 && col("cand") === 0, lit(1.5)).otherwise(col("b0")))
    val e1 = intercept[IllegalArgumentException](OpinionDiffusion.diffuse(inst.edges, bad, 1))
    assert(e1.getMessage.contains("profile row (node=2, cand=0) has b0=1.5"))
    val target = inst.profile.filter(col("cand") === 0).select(col("node"), col("b0"),
      when(col("node") === 3, lit(-0.1)).otherwise(col("d")).as("d"))
    val e2 = intercept[IllegalArgumentException](
      OpinionDiffusion.diffuseScenarios(inst.edges, target, Seq(1L).toDF("scen"), 1))
    assert(e2.getMessage.contains("profile row (node=3) has b0="))
    assert(e2.getMessage.contains("d=-0.1 outside [0, 1]"))
  }

  test("edges that are not column-stochastic are rejected by name") {
    // The running example's edges with node 2's in-weights summing to 0.75.
    val skewed = Seq((0L, 2L, 0.5), (1L, 2L, 0.25), (2L, 3L, 1.0), (0L, 0L, 1.0), (1L, 1L, 1.0))
      .toDF("src", "dst", "w")
    val e1 = intercept[IllegalArgumentException](OpinionDiffusion.diffuse(skewed, inst.profile, 1))
    assert(e1.getMessage.contains("in-edge weights of node 2 sum to 0.75"))
    val e2 = intercept[IllegalArgumentException](
      OpinionDiffusion.diffuseScenarios(skewed, inst.targetProfile(Nil), Seq(1L).toDF("scen"), 1))
    assert(e2.getMessage.contains("in-edge weights of node 2 sum to 0.75"))
  }

  test("diffuse runs at most t + 2 Spark jobs") {
    val (_, jobs) = JobCounter(spark)(OpinionDiffusion.diffuse(rnd.edges, rnd.profile, rnd.t))
    assert(jobs <= rnd.t + 2, s"$jobs jobs")
  }

  test("diffuseScenarios runs at most t + 2 Spark jobs") {
    val scen = (0L until rnd.n).toDF("scen")
    val (_, jobs) = JobCounter(spark)(
      OpinionDiffusion.diffuseScenarios(rnd.edges, rnd.targetProfile(Seq(3L)), scen, rnd.t))
    assert(jobs <= rnd.t + 2, s"$jobs jobs")
  }

  test("a seeded targetScore runs no Spark job once the instance's CSR exists") {
    val i = rnd.copy(t = 3)
    i.targetScore(Cumulative, Nil) // collects the profile and the CSR, diffuses the horizon
    val (_, jobs, stages) = JobCounter.withStages(spark)(i.targetScore(Cumulative, Seq(3L, 17L)))
    assert(jobs == 0 && stages == 0, s"$jobs jobs, $stages stages")
  }

  test("a seeded wins runs as many Spark jobs at t = 1 as at t = 8") {
    def jobs(t: Int) = {
      val i = rnd.copy(t = t)
      i.targetScore(Cumulative, Nil) // collects the profile and the CSR, diffuses the horizon
      JobCounter(spark)(i.wins(Plurality(rnd.r), Seq(3L, 17L)))._2
    }
    val (one, eight) = (jobs(1), jobs(8))
    assert(one == eight, s"t=1: $one jobs, t=8: $eight jobs")
    assert(one == 0, s"t=1: $one jobs")
  }

  test("advance is bit-identical to the per-step kernel it replaced, for 1, r and n + 1 vectors") {
    // The running example, rnd, and instances of the two benchmark shapes.
    val shapes = Seq(Datasets.Spec("greedy", "greedy", 120, 720, 4, 0, 0, 7),
      Datasets.Spec("win", "win", 150, 900, 2, 0, 0, 7)).map(Datasets.instance(spark, _))
    for (i <- Seq(inst, rnd) ++ shapes; t <- Seq(0, 1, 2, 8, 20)) {
      val p = OpinionDiffusion.Dense(i.profile)
      val (b0, d) = i.targetDense(Seq(1L))
      // Scenarios 0 until n, each pinning its node, and one that pins none.
      val scen = (0L until i.n) :+ -1L
      val m = scen.length
      def pinned(base: Array[Double]) =
        Array.tabulate(b0.length * m)(j => if (scen(j % m) == j / m) 1.0 else base(j / m))
      for ((b0, d, k) <- Seq((b0, d, 1), (p.b0, p.d, p.k), (pinned(b0), pinned(d), m))) {
        val got = OpinionDiffusion.advance(i.csr, b0, d, k, t)
        // Both replaced kernels: one job per step, and one job over slices of the vectors.
        assert(got.sameElements(StepDiffusion.advance(i.csr, b0, d, k, t)), s"per step: n=${i.n}, t=$t, k=$k")
        assert(got.sameElements(SliceDiffusion.advance(i.csr, b0, d, k, t)), s"sliced: n=${i.n}, t=$t, k=$k")
      }
    }
  }

  test("an instance whose n or r disagrees with its profile is rejected, naming both counts") {
    for ((n, r) <- Seq((5L, 2), (4L, 3))) {
      val e = intercept[IllegalArgumentException](inst.copy(n = n, r = r).targetScore(Cumulative, Nil))
      assert(e.getMessage.contains(
        s"the profile has 4 nodes and 2 candidates, but the instance has n = $n and r = $r"))
    }
  }
}
