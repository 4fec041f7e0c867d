package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

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
}
