package repro.core

import org.apache.spark.sql.functions._
import repro.{JobCounter, SparkSpec}
import repro.expts.{Datasets, RunningExample}

class SandwichSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark)
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-sw", "tiny", 20, 70, 3, 0, 0, 223), t = 2)

  private def lbOf(i: Instance, p: Int, wP: Double, seeds: Seq[Long]): Double = {
    val vq = Sandwich.favorableUsers(i, p)
    RestrictedCumulative(vq, wP).exact(i.opinions(seeds), i.q)
  }

  private def ubOf(i: Instance, p: Int, w1: Double, seeds: Seq[Long]): Double = {
    val reach = GraphOps.reachWithin(spark, i.edges, i.n, i.t)
    val ns = reach.filter(col("root").isInCollection(if (seeds.isEmpty) Seq(-1L) else seeds))
      .select("node")
    val vq = Sandwich.favorableUsers(i, p)
    ns.unionByName(vq).distinct().count() * w1
  }

  test("favorable users on the running example (plurality, no seeds)") {
    // t=1 target (0.40,0.80,0.60,0.75) vs c2 (0.35,0.75,0.78,0.90): users 1,2.
    val vq = Sandwich.favorableUsers(inst, p = 1).collect().map(_.getLong(0)).toSet
    assert(vq == Set(0L, 1L))
  }

  test("weakly favorable users on the running example") {
    // With r=2 weakly favorable = favorable = {users 1,2}.
    val uq = Sandwich.weaklyFavorableUsers(inst).collect().map(_.getLong(0)).toSet
    assert(uq == Set(0L, 1L))
  }

  test("LB <= F <= UB for the plurality score on random seed sets (Thms 5-6)") {
    val rng = new scala.util.Random(5)
    val plu = Plurality(3)
    for (_ <- 1 to 4) {
      val seeds = rng.shuffle((0L until rnd.n).toList).take(1 + rng.nextInt(3))
      val f = rnd.targetScore(plu, seeds)
      val lb = lbOf(rnd, 1, 1.0, seeds)
      val ub = ubOf(rnd, 1, 1.0, seeds)
      assert(lb <= f + 1e-9, s"LB=$lb > F=$f for $seeds")
      assert(f <= ub + 1e-9, s"F=$f > UB=$ub for $seeds")
    }
  }

  test("Copeland F <= UB on random seed sets (Thm 7)") {
    val rng = new scala.util.Random(9)
    val factor = (rnd.r - 1).toDouble / (rnd.n / 2 + 1).toDouble
    for (_ <- 1 to 3) {
      val seeds = rng.shuffle((0L until rnd.n).toList).take(2)
      val f = rnd.targetScore(Copeland, seeds)
      val uqNs = {
        val reach = GraphOps.reachWithin(spark, rnd.edges, rnd.n, rnd.t)
          .filter(col("root").isInCollection(seeds)).select("node")
        Sandwich.weaklyFavorableUsers(rnd).unionByName(reach).distinct().count()
      }
      assert(f <= uqNs * factor + 1e-9, s"F=$f > UB for $seeds")
    }
  }

  test("coverageGreedy maximizes coverage on a hand instance") {
    // Star: node 0 reaches everything in 1 hop; it must be picked first.
    import spark.implicits._
    val raw = (1L until 6L).map(v => (0L, v, 1.0)).toDF("src", "dst", "w")
    val star = Instance(GraphOps.normalize(spark, raw, 6),
      RunningExample.instance(spark).profile, 6, 2, 0, 1)
    val empty = Seq.empty[Long].toDF("node")
    val (seeds, ub) = Sandwich.coverageGreedy(star, empty, 1, 1.0)
    assert(seeds == Seq(0L))
    assert(ub == 6.0)
  }

  test("coverageGreedy UB value is exact for the returned set") {
    val empty = {
      import spark.implicits._
      Seq.empty[Long].toDF("node")
    }
    val (seeds, ub) = Sandwich.coverageGreedy(rnd, empty, 2, 0.5)
    val reach = GraphOps.reachWithin(spark, rnd.edges, rnd.n, rnd.t)
      .filter(col("root").isInCollection(seeds)).select("node").distinct().count()
    assert(math.abs(ub - reach * 0.5) < 1e-9)
  }

  test("coverageGreedy UB with a fixed set overlapping the reach sets is factor * |N_S ∪ fixed|") {
    import spark.implicits._
    val reach = GraphOps.reachWithin(spark, rnd.edges, rnd.n, rnd.t)
    // The users reached from node 0, and node 1, are fixed (already covered).
    val fixed = reach.filter(col("root") === 0L).select("node").union(Seq(1L).toDF("node"))
    val (seeds, ub) = Sandwich.coverageGreedy(rnd, fixed, 3, 0.5)
    val union = reach.filter(col("root").isInCollection(seeds)).select("node")
      .unionByName(fixed).distinct().count()
    assert(seeds.length == 3 && seeds.distinct.length == 3)
    assert(math.abs(ub - union * 0.5) < 1e-9, s"UB $ub vs |N_S ∪ fixed| = $union")
  }

  test("coverageGreedy submits no stage beyond those of reachWithin") {
    import spark.implicits._
    val fixed = Seq(1L, 4L, 7L).toDF("node")
    rnd.csr // collected before counting
    val (_, reachJobs, reachStages) =
      JobCounter.withStages(spark)(GraphOps.reachWithin(spark, rnd.csr, rnd.n, rnd.t).collect())
    val (_, jobs, stages) = JobCounter.withStages(spark)(Sandwich.coverageGreedy(rnd, fixed, 3, 0.5))
    assert((jobs, stages) == (reachJobs, reachStages))
  }

  test("Sandwich.run runs no Spark job once profile and CSR are collected") {
    rnd.targetScore(Plurality(3), Nil) // collects the profile and the CSR, diffuses the horizon
    val (res, jobs) = JobCounter(spark)(Sandwich.run(rnd, Plurality(3), k = 2))
    assert(jobs == 0 && res.seeds.length == 2, s"jobs $jobs")
  }

  test("Sandwich.run rejects k > n") {
    intercept[IllegalArgumentException](Sandwich.run(inst, Plurality(2), k = 5))
  }

  test("Algorithm 3 (plurality) returns the best of S_U, S_L, S_F by F") {
    val res = Sandwich.run(rnd, Plurality(3), k = 2)
    val plu = Plurality(3)
    val candidates = Seq(res.sU, res.sL.get, res.sF).map(rnd.targetScore(plu, _))
    assert(math.abs(res.fValue - candidates.max) < 1e-9)
    assert(res.seeds.length == 2)
    assert(res.ratioU > 0 && res.ratioU <= 1 + 1e-9)
  }

  test("Algorithm 3 sandwich F(S#) >= F(S_F): never worse than plain greedy") {
    val res = Sandwich.run(rnd, Plurality(3), k = 2)
    assert(res.fValue >= rnd.targetScore(Plurality(3), res.sF) - 1e-9)
  }

  test("Algorithm 3 (Copeland) has no lower-bound arm") {
    val res = Sandwich.runCopeland(rnd, k = 2)
    assert(res.sL.isEmpty)
    assert(res.seeds.length == 2)
    assert(Set("S_U", "S_F").contains(res.pickedFrom))
  }

  test("empirical sandwich factor on the running example is high (§IV-D)") {
    val res = Sandwich.run(inst, Plurality(2), k = 1)
    assert(res.ratioU >= 0.4, s"ratio ${res.ratioU} suspiciously low for a 4-node graph")
  }
}
