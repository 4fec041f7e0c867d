package repro.expts

import repro.{JobCounter, SparkSpec}

/** Smoke tests for the table experiment modules shared by benches and
  * spark-submit jobs (the heavyweight parameterizations run in bench/).
  */
class TableExpSpec extends SparkSpec {

  test("Table1Exp reproduces every paper cell") {
    val (text, rows) = Table1Exp.run(spark)
    assert(rows.size == 6 && rows.forall(_.matchesPaper))
    assert(text.contains("Table I"))
    assert(text.linesIterator.count(_.startsWith("|")) == 8) // header + sep + 6 rows
  }

  test("Table2Exp validates properties at reduced trial count") {
    val (text, rows) = Table2Exp.run(spark, trials = 3)
    assert(rows.size == 5)
    assert(rows.forall(r => r.nonNegative && r.nonDecreasing))
    assert(rows.find(_.score == "Plurality").get.submodularEmpirical.contains(false))
    assert(rows.find(_.score == "Copeland").get.submodularEmpirical.contains(false))
    assert(text.contains("Table II"))
  }

  test("Table4Exp scales down and keeps the case-study invariants") {
    val (out, jobs) = JobCounter(spark)(Table4Exp.run(spark, n = 300, m = 3000, k = 6, t = 4, lambda = 8, seed = 881))
    // Building the instance and collecting its inputs: the votes and reach are counted on the driver.
    assert(jobs == 15, s"$jobs jobs")
    assert(out.rows.size == 7)
    assert(out.afterTotal >= out.beforeTotal)
    out.rows.foreach(r => assert(r.afterVotes >= r.beforeVotes))
    assert(out.text.contains("Table IV") && out.text.contains("Table V"))
  }

  test("Table6Exp finds winning seed counts on a miniature instance") {
    val (text, rows) = Table6Exp.run(spark, n = 40, m = 200, t = 3, kMax = 40,
      rwLambda = 60, rsTheta = 2500L, seed = 883)
    assert(rows.size == 6)
    assert(rows.forall(_.kStar.isDefined))
    assert(text.contains("Table VI"))
  }

  test("ComparisonExp produces the full 27-row grid on a miniature instance") {
    val (text, rows) = ComparisonExp.run(spark, n = 40, m = 200, r = 3, t = 3,
      k = 3, rwLambda = 40, rsTheta = 1500L, seed = 887)
    assert(rows.size == 27)
    assert(rows.map(_.method).distinct.size == 9)
    assert(rows.map(_.score).distinct.size == 3)
    rows.foreach(r => assert(r.value >= 0))
    assert(text.contains("Figs 6-8"))
  }
}
