package repro.walks

import repro.SparkSpec
import repro.core.Cumulative
import repro.expts.RunningExample

class BoundsSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)

  test("Thm 10 lambda at the paper defaults (rho=0.9, delta=0.1) is 150") {
    assert(Bounds.lambdaCumulative(0.1, 0.9) == 150)
  }

  test("lambda grows as delta shrinks and rho grows") {
    assert(Bounds.lambdaCumulative(0.05, 0.9) > Bounds.lambdaCumulative(0.1, 0.9))
    assert(Bounds.lambdaCumulative(0.1, 0.95) > Bounds.lambdaCumulative(0.1, 0.75))
  }

  test("lambda parameter validation") {
    intercept[IllegalArgumentException](Bounds.lambdaCumulative(0.0, 0.9))
    intercept[IllegalArgumentException](Bounds.lambdaCumulative(0.1, 1.0))
    intercept[IllegalArgumentException](Bounds.lambdaRanked(0.0, 0.9))
    intercept[IllegalArgumentException](Bounds.lambdaCopeland(-0.1, 0.9))
  }

  test("Thm 12 one-sided bound needs fewer walks than Thm 11") {
    assert(Bounds.lambdaCopeland(0.1, 0.9) < Bounds.lambdaRanked(0.1, 0.9))
  }

  test("lambdaPerNode floors gamma and caps lambda") {
    val lam = Bounds.lambdaPerNode(inst, rho = 0.9, gammaFloor = 0.05, lambdaCap = 500).toMap
    assert(lam.size == 4)
    assert(lam.values.forall(l => l >= 1 && l <= 500))
    // Node 0 gap |0.40-0.35| = 0.05 (the floor) -> lambda = ln(20)/(2*0.0025) = 600 -> cap 500.
    assert(lam(0L) == 500)
    // Node 2 gap |0.60-0.78| = 0.18 -> ceil(ln(20)/(2*0.0324)) = 47.
    assert(lam(2L) == 47)
  }

  test("logChoose matches exact binomial logs") {
    assert(math.abs(Bounds.logChoose(10, 3) - math.log(120.0)) < 1e-9)
    assert(math.abs(Bounds.logChoose(5, 5) - 0.0) < 1e-9)
    assert(Bounds.logChoose(1000, 10) > 0)
  }

  test("Eq 40 theta decreases as OPT or epsilon grow") {
    val t1 = Bounds.thetaCumulative(1000, 10, 0.1, 1.0, optLb = 100)
    val t2 = Bounds.thetaCumulative(1000, 10, 0.1, 1.0, optLb = 500)
    val t3 = Bounds.thetaCumulative(1000, 10, 0.2, 1.0, optLb = 100)
    assert(t2 < t1 && t3 < t1)
    intercept[IllegalArgumentException](Bounds.thetaCumulative(1000, 10, 0.1, 1.0, 0))
  }

  test("the OPT lower bound is valid: OPT >= max(k, F(empty))") {
    val lb = Bounds.optLowerBoundCumulative(inst, k = 1)
    assert(math.abs(lb - 2.55) < 1e-9) // F(∅) = 2.55 > k = 1
    val lb4 = Bounds.optLowerBoundCumulative(inst, k = 4)
    assert(lb4 == 4.0) // k dominates and OPT = 4 exactly
    // Validity: the best singleton reaches 3.30 >= lb for k=1.
    assert(inst.targetScore(Cumulative, Seq(0L)) >= lb - 1e-9)
  }

  test("lambdaPerNode matches a direct gamma computation via DuckDB") {
    val got = spark.createDataFrame(Bounds.lambdaPerNode(inst, rho = 0.9, gammaFloor = 0.01, lambdaCap = 100000))
      .toDF("node", "lam")
    val ops = inst.opinions(Nil)
    val c = math.log(2.0 / 0.1) / 2.0
    repro.Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(t.node AS BIGINT) AS node,
         |  LEAST(100000, CAST(CEIL($c / (POW(GREATEST(MIN(ABS(CAST(x.b AS DOUBLE) - CAST(t.b AS DOUBLE))), 0.01), 2))) AS BIGINT)) AS lam
         |FROM ops t JOIN ops x ON x.node = t.node
         |WHERE CAST(t.cand AS INT) = 0 AND CAST(x.cand AS INT) <> 0
         |GROUP BY t.node""".stripMargin,
      "ops" -> ops)
  }
}
