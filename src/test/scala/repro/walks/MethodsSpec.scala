package repro.walks

import repro.SparkSpec
import repro.core._
import repro.expts.RunningExample

/** Front-end wiring of the RW/RS methods: walk budgets derived from the
  * paper's bounds when no override is given, overrides honored, and the
  * two methods' estimates land near the exact scores on the running example.
  */
class MethodsSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)

  test("RW with no override derives lambda from Thm 10 (cumulative)") {
    // rho=0.9, delta=0.1 -> 150 walks per node; 4 nodes -> still instant.
    val r = Methods.rw(inst, Cumulative, 1, rho = 0.9, delta = 0.1, seed = 61)
    assert(r.seeds.length == 1)
    assert(r.estScores.head > 2.5 && r.estScores.head <= 4.0)
  }

  test("RW with no override derives per-node lambda for ranked scores") {
    val r = Methods.rw(inst, Plurality(2), 1, rho = 0.9, seed = 62, lambdaCap = 300)
    assert(r.seeds.length == 1)
  }

  test("RS with no override derives theta from Eq 40 (cumulative)") {
    val r = Methods.rs(inst, Cumulative, 1, eps = 0.3, seed = 63, thetaCap = 5000L)
    assert(r.seeds.length == 1)
  }

  test("RS for ranked scores defaults theta to the cap (§VI-E heuristic input)") {
    val r = Methods.rs(inst, Plurality(2), 1, seed = 64, thetaCap = 1000L)
    assert(r.seeds.length == 1)
  }

  test("RW estimated final score tracks the exact score of its seeds") {
    val r = Methods.rw(inst, Cumulative, 2, seed = 65, lambdaOverride = Some(2000))
    val exact = inst.targetScore(Cumulative, r.seeds)
    assert(math.abs(r.estScores.last - exact) < 0.1,
      s"estimate ${r.estScores.last} vs exact $exact")
  }

  test("RS estimated final score tracks the exact score of its seeds") {
    val r = Methods.rs(inst, Cumulative, 2, seed = 66, thetaOverride = Some(20000L))
    val exact = inst.targetScore(Cumulative, r.seeds)
    assert(math.abs(r.estScores.last - exact) < 0.15,
      s"estimate ${r.estScores.last} vs exact $exact")
  }

  test("targetStubbornness extracts the target candidate's d column") {
    val d = Methods.targetStubbornness(inst).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(d == Map(0L -> 0.0, 1L -> 0.0, 2L -> 0.5, 3L -> 0.5))
  }

  test("RW and RS reject fewer than one walk per node or sketch") {
    intercept[IllegalArgumentException](Methods.rw(inst, Cumulative, 1, lambdaOverride = Some(0)))
    intercept[IllegalArgumentException](Methods.rw(inst, Plurality(2), 1, lambdaCap = 0))
    intercept[IllegalArgumentException](Methods.rs(inst, Cumulative, 1, thetaOverride = Some(0L)))
    intercept[IllegalArgumentException](Methods.rs(inst, Plurality(2), 1, thetaCap = 0L))
  }
}
