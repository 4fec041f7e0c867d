package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{JobCounter, Oracle, SparkSpec}
import repro.expts.Datasets

class ScoresSpec extends SparkSpec {
  import spark.implicits._

  // 3 candidates, 4 users; target = 0. Hand-computable preference matrix:
  //   user 0: b = (0.9, 0.5, 0.1) -> target rank 1
  //   user 1: b = (0.5, 0.9, 0.1) -> target rank 2
  //   user 2: b = (0.1, 0.5, 0.9) -> target rank 3
  //   user 3: b = (0.5, 0.5, 0.1) -> tie with cand 1: beta = 2
  private lazy val ops = Seq(
    (0L, 0, 0.9), (0L, 1, 0.5), (0L, 2, 0.1),
    (1L, 0, 0.5), (1L, 1, 0.9), (1L, 2, 0.1),
    (2L, 0, 0.1), (2L, 1, 0.5), (2L, 2, 0.9),
    (3L, 0, 0.5), (3L, 1, 0.5), (3L, 2, 0.1),
  ).toDF("node", "cand", "b").localCheckpoint(true)

  test("cumulative sums the target column") {
    assert(math.abs(Cumulative.exact(ops, 0) - 2.0) < 1e-12)
    assert(math.abs(Cumulative.exact(ops, 1) - 2.4) < 1e-12)
  }

  test("plurality counts strictly-top users (ties do not count)") {
    assert(Plurality(3).exact(ops, 0) == 1.0) // only user 0
    assert(Plurality(3).exact(ops, 1) == 1.0) // only user 1 (user 3 ties)
    assert(Plurality(3).exact(ops, 2) == 1.0) // only user 2
  }

  test("p-approval grows with p and counts tied ranks correctly") {
    assert(PApproval(1, 3).exact(ops, 0) == 1.0)
    assert(PApproval(2, 3).exact(ops, 0) == 3.0) // users 0,1 and tied user 3 (beta=2)
    assert(PApproval(3, 3).exact(ops, 0) == 4.0)
  }

  test("p-approval is monotonically non-decreasing in p") {
    val scores = (1 to 3).map(p => PApproval(p, 3).exact(ops, 0))
    assert(scores == scores.sorted)
  }

  test("positional-p-approval weights the rank positions") {
    val s = PositionalPApproval(2, Seq(1.0, 0.5, 0.0))
    // user0 rank1 -> 1.0, user1 rank2 -> 0.5, user3 rank2 -> 0.5, user2 rank3 -> 0.
    assert(math.abs(s.exact(ops, 0) - 2.0) < 1e-12)
  }

  test("positional-p-approval with w[p]=0 equals (p-1)-approval (§VIII-C)") {
    val zeroTail = PositionalPApproval(2, Seq(1.0, 0.0, 0.0))
    assert(zeroTail.exact(ops, 0) == PApproval(1, 3).exact(ops, 0))
    val oneTail = PositionalPApproval(2, Seq(1.0, 1.0, 1.0))
    assert(oneTail.exact(ops, 0) == PApproval(2, 3).exact(ops, 0))
  }

  test("positional weights must be non-increasing and within [0,1]") {
    intercept[IllegalArgumentException](PositionalPApproval(2, Seq(0.5, 1.0)))
    intercept[IllegalArgumentException](PositionalPApproval(2, Seq(1.5, 1.0)))
    intercept[IllegalArgumentException](PositionalPApproval(0, Seq(1.0)))
  }

  test("Copeland counts strict one-on-one majority wins") {
    // 0 vs 1: wins {0}, losses {1,2} -> loses. 0 vs 2: wins {0,1,3}, losses {2} -> wins.
    assert(Copeland.exact(ops, 0) == 1.0)
    // 1 vs 0: wins 2, losses 1 -> wins; 1 vs 2: wins {0,1,3} -> wins: Condorcet winner.
    assert(Copeland.exact(ops, 1) == 2.0)
    assert(Copeland.exact(ops, 2) == 0.0)
  }

  test("Copeland score is bounded by r-1") {
    (0 to 2).foreach(c => assert(Copeland.exact(ops, c) <= 2.0))
  }

  test("plurality scores across candidates sum to at most n") {
    val tot = (0 to 2).map(c => Plurality(3).exact(ops, c)).sum
    assert(tot <= 4.0)
  }

  test("RestrictedCumulative restricts and scales") {
    val nodes = Seq(0L, 1L).toDF("node")
    val s = RestrictedCumulative(nodes, 0.5)
    assert(math.abs(s.exact(ops, 0) - 0.5 * (0.9 + 0.5)) < 1e-12)
  }

  test("RestrictedCumulative on an empty node set is 0") {
    val s = RestrictedCumulative(Seq.empty[Long].toDF("node"), 1.0)
    assert(s.exact(ops, 0) == 0.0)
  }

  test("byScenario agrees with exact for every score") {
    // Scenario 7 holds the exact target opinions, scenario 8 other ones.
    val other = Seq((0L, 0.1), (1L, 0.95), (2L, 0.6), (3L, 0.3)).toDF("node", "b")
    val ops8 = ops.filter(col("cand") =!= 0)
      .unionByName(other.select(col("node"), lit(0).as("cand"), col("b")))
    val targetOps = ops.filter(col("cand") === 0)
      .select(lit(7L).as("scen"), col("node"), col("b"))
      .unionByName(other.select(lit(8L).as("scen"), col("node"), col("b")))
    val compOps = ops.filter(col("cand") =!= 0)
    val scores: Seq[VoteScore] = Seq(
      Cumulative, Plurality(3), PApproval(2, 3),
      PositionalPApproval(2, Seq(1.0, 0.5, 0.0)), Copeland,
      RestrictedCumulative(Seq(0L, 1L, 3L).toDF("node"), 0.5))
    for (s <- scores) {
      val bys = s.byScenario(targetOps, compOps).collect()
      assert(bys.map(_.getLong(0)).toSeq == Seq(7L, 8L), s.name)
      assert(math.abs(bys(0).getDouble(1) - s.exact(ops, 0)) < 1e-12, s.name)
      assert(math.abs(bys(1).getDouble(1) - s.exact(ops8, 0)) < 1e-12, s.name)
    }
  }

  test("cumulative matches DuckDB") {
    val got = ops.filter(col("cand") === 0).agg(round(sum("b"), 6).as("score"))
    Oracle.assertEquivalent(got,
      "SELECT ROUND(SUM(CAST(b AS DOUBLE)), 6) AS score FROM ops WHERE CAST(cand AS INT) = 0",
      "ops" -> ops)
  }

  test("plurality matches DuckDB") {
    val got = Seq(Plurality(3).exact(ops, 0)).toDF("score")
    Oracle.assertEquivalent(got,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS score FROM (
        |  SELECT t.node FROM ops t
        |  WHERE CAST(t.cand AS INT) = 0 AND NOT EXISTS (
        |    SELECT 1 FROM ops x
        |    WHERE x.node = t.node AND CAST(x.cand AS INT) <> 0
        |      AND CAST(x.b AS DOUBLE) >= CAST(t.b AS DOUBLE))
        |)""".stripMargin,
      "ops" -> ops)
  }

  test("Copeland matches DuckDB") {
    val got = Seq(Copeland.exact(ops, 0)).toDF("score")
    Oracle.assertEquivalent(got,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS score FROM (
        |  SELECT x.cand,
        |         SUM(CASE WHEN CAST(t.b AS DOUBLE) > CAST(x.b AS DOUBLE) THEN 1 ELSE 0 END) AS wins,
        |         SUM(CASE WHEN CAST(t.b AS DOUBLE) < CAST(x.b AS DOUBLE) THEN 1 ELSE 0 END) AS losses
        |  FROM ops t JOIN ops x ON x.node = t.node
        |  WHERE CAST(t.cand AS INT) = 0 AND CAST(x.cand AS INT) <> 0
        |  GROUP BY x.cand
        |) WHERE wins > losses""".stripMargin,
      "ops" -> ops)
  }

  // A random instance with r = 3 and t = 4 for the checks against the
  // replaced DataFrame score algebra (test-scope `JoinScores`).
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("ref", "ref", 40, 200, 3, 0, 0, 307), t = 4)

  /** The six scores, the restricted cumulative one over `nodes`. */
  private def allScores(nodes: Seq[Long]): Seq[VoteScore] = Seq(
    Cumulative, Plurality(3), PApproval(2, 3), PositionalPApproval(2, Seq(1.0, 0.5, 0.0)), Copeland,
    RestrictedCumulative(nodes.toDF("node"), 0.5))

  /** Every candidate's `exact` score and every scenario's `byScenario`
    * score agree with the DataFrame reference within 1e-12.
    */
  private def assertMatchesReference(ops: DataFrame, targetOps: DataFrame, compOps: DataFrame,
                                     scores: Seq[VoteScore]): Unit = {
    val cands = ops.select("cand").distinct().collect().map(_.getInt(0)).sorted
    for (s <- scores) {
      for (c <- cands) {
        val (got, want) = (s.exact(ops, c), JoinScores.exact(s, ops, c))
        assert(math.abs(got - want) < 1e-12, s"${s.name} cand $c: $got vs $want")
      }
      val got = s.byScenario(targetOps, compOps).collect().map(r => (r.getLong(0), r.getDouble(1))).toSeq
      val want = JoinScores.scenarioScores(s, targetOps, compOps)
      assert(got.map(_._1) == want.map(_._1), s.name)
      got.zip(want).foreach { case ((scen, g), (_, w)) =>
        assert(math.abs(g - w) < 1e-12, s"${s.name} scenario $scen: $g vs $w")
      }
    }
  }

  test("exact and byScenario match the replaced DataFrame scores on a random instance") {
    val seeds = Seq(3L, 17L)
    val targetOps = OpinionDiffusion.diffuseScenarios(rnd.edges, rnd.targetProfile(seeds),
      (0L until rnd.n).toDF("scen"), rnd.t)
    assertMatchesReference(rnd.opinions(seeds), targetOps, rnd.competitorOpinions(),
      allScores(0L until rnd.n by 3))
  }

  test("exact and byScenario match the replaced DataFrame scores on exact ties") {
    // b == bx for some voters and competitors: rank counts a tie against
    // the target, Copeland scores it 0.
    val tied = Seq(
      (0L, 0, 0.5), (0L, 1, 0.5), (0L, 2, 0.5),
      (1L, 0, 0.7), (1L, 1, 0.7), (1L, 2, 0.2),
      (2L, 0, 0.3), (2L, 1, 0.6), (2L, 2, 0.3),
      (3L, 0, 0.9), (3L, 1, 0.9), (3L, 2, 0.9),
      (4L, 0, 0.4), (4L, 1, 0.1), (4L, 2, 0.4),
    ).toDF("node", "cand", "b")
    val targetOps = tied.filter(col("cand") === 0).select(lit(1L).as("scen"), col("node"), col("b"))
      .unionByName(tied.filter(col("cand") === 1).select(lit(2L).as("scen"), col("node"), col("b")))
    assertMatchesReference(tied, targetOps, tied.filter(col("cand") =!= 0), allScores(Seq(0L, 2L, 3L)))
  }

  test("exact, byScenario and wins are bit-identical across edge and shuffle partitioning") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val scores = allScores(0L until rnd.n by 3)
    def run(edgeParts: Int, shuffleParts: Int) = {
      spark.conf.set(key, shuffleParts.toLong)
      val inst = rnd.copy(edges = rnd.edges.repartition(edgeParts))
      val ops = inst.opinions(Seq(5L))
      val targetOps = OpinionDiffusion.diffuseScenarios(inst.edges, inst.targetProfile(Seq(5L)),
        (0L until inst.n).toDF("scen"), inst.t)
      scores.map { s =>
        ((0 until inst.r).map(c => s.exact(ops, c)),
          s.byScenario(targetOps, inst.competitorOpinions()).collect().toSeq,
          Seq(Nil, Seq(5L), Seq(5L, 11L, 30L)).map(inst.wins(s, _)))
      }
    }
    try assert(run(1, 4) == run(7, 64))
    finally spark.conf.set(key, saved)
  }

  test("exact and byScenario on local DataFrames run no Spark job") {
    val local = Seq(
      (0L, 0, 0.9), (0L, 1, 0.5), (0L, 2, 0.1),
      (1L, 0, 0.5), (1L, 1, 0.9), (1L, 2, 0.1),
    ).toDF("node", "cand", "b")
    val targetOps = local.filter(col("cand") === 0).select(lit(0L).as("scen"), col("node"), col("b"))
    for (s <- allScores(Seq(1L))) {
      val (_, jobs) = JobCounter(spark) {
        (0 to 2).foreach(c => s.exact(local, c))
        s.byScenario(targetOps, local.filter(col("cand") =!= 0)).collect()
      }
      assert(jobs == 0, s"${s.name}: $jobs jobs")
    }
  }

  test("targetScore and wins run no job without seeds and at most t with seeds") {
    val inst = rnd.copy(t = 3)
    inst.opinions(Nil) // diffuse the seedless horizon outside the counts
    for (s <- allScores(0L until rnd.n by 3)) {
      for ((seeds, most) <- Seq(Nil -> 0, Seq(2L, 9L) -> inst.t)) {
        val (_, scoreJobs) = JobCounter(spark)(inst.targetScore(s, seeds))
        val (_, winJobs) = JobCounter(spark)(inst.wins(s, seeds))
        assert(scoreJobs <= most && winJobs <= most,
          s"${s.name} seeds $seeds: targetScore $scoreJobs, wins $winJobs jobs")
      }
    }
  }
}
