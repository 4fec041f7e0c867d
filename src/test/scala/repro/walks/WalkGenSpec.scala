package repro.walks

import org.apache.spark.sql.functions._
import repro.{JobCounter, SparkSpec}
import repro.expts.{Datasets, RunningExample}

class WalkGenSpec extends SparkSpec {

  private lazy val inst = RunningExample.instance(spark, t = 5)
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-walk", "tiny", 30, 110, 2, 0, 0, 401), t = 4)

  private def gen(i: repro.core.Instance, lambda: Int, seed: Long = 1) = {
    val starts = WalkGen.uniformStarts(spark, i.n, lambda)
    WalkGen.generate(spark, i.edges, Methods.targetStubbornness(i), starts, i.t, seed)
  }

  test("one walk per start row is produced") {
    val w = gen(rnd, 3)
    assert(w.count() == rnd.n * 3)
  }

  test("paths begin at their start node") {
    val bad = gen(rnd, 2).filter(element_at(col("path"), 1) =!= col("start")).count()
    assert(bad == 0)
  }

  test("end equals the last path element") {
    val bad = gen(rnd, 2)
      .filter(element_at(col("path"), -1) =!= col("end")).count()
    assert(bad == 0)
  }

  test("paths have at most t+1 nodes") {
    val w = gen(rnd, 2)
    assert(w.filter(size(col("path")) > rnd.t + 1).count() == 0)
  }

  test("consecutive path nodes follow reverse edges") {
    val w = gen(rnd, 2).filter(size(col("path")) >= 2)
      .withColumn("i", explode(sequence(lit(1), size(col("path")) - 1)))
      .select(element_at(col("path"), col("i") + 1).as("src"),
              element_at(col("path"), col("i")).as("dst"))
    val bad = w.join(rnd.edges.select("src", "dst"), Seq("src", "dst"), "left_anti").count()
    assert(bad == 0)
  }

  test("walks from in-degree-0 nodes end there immediately") {
    // Running example: users 1 and 2 (nodes 0, 1) keep their opinion.
    val w = gen(inst, 5).filter(col("start").isin(0L, 1L))
    assert(w.filter(size(col("path")) =!= 1).count() == 0)
    assert(w.filter(col("end") =!= col("start")).count() == 0)
  }

  test("walks from a fully stubborn node terminate at it") {
    // Make node 2 fully stubborn for the target.
    val prof = inst.profile.withColumn("d",
      when(col("cand") === 0 && col("node") === 2, 1.0).otherwise(col("d")))
    val stub = inst.copy(profile = prof)
    val w = gen(stub, 4).filter(col("start") === 2)
    assert(w.filter(size(col("path")) =!= 1).count() == 0)
  }

  test("zero-stubbornness DeGroot walks run the full horizon or hit a source") {
    val prof = inst.profile.withColumn("d",
      when(col("cand") === 0, 0.0).otherwise(col("d")))
    val deg = inst.copy(profile = prof, t = 3)
    val w = gen(deg, 10).filter(col("start") === 3).collect()
    // From node 3 (user 4) the walk must go 3 -> 2, then 2 -> {0,1}, then stop
    // (sources): path length exactly 3.
    w.foreach(r => assert(r.getSeq[Long](2).length == 3, r))
  }

  test("generation is deterministic in the seed") {
    val a = gen(rnd, 2, seed = 9).orderBy("wid").collect().map(_.getSeq[Long](2)).toSeq
    val b = gen(rnd, 2, seed = 9).orderBy("wid").collect().map(_.getSeq[Long](2)).toSeq
    assert(a == b)
  }

  test("different seeds give different walk collections") {
    val a = gen(rnd, 4, seed = 9).collect().map(_.getSeq[Long](2)).toSeq.sortBy(_.mkString(","))
    val b = gen(rnd, 4, seed = 10).collect().map(_.getSeq[Long](2)).toSeq.sortBy(_.mkString(","))
    assert(a != b)
  }

  test("walk counts below 1 are rejected by name") {
    for (lam <- Seq(0, -1)) {
      val e1 = intercept[IllegalArgumentException](WalkGen.uniformStarts(spark, 4, lam))
      assert(e1.getMessage.contains(s"walk count lambda must be >= 1, got $lam"))
      val lams = spark.range(4).select(col("id").as("node"), lit(lam).as("lam"))
      val e2 = intercept[Exception](WalkGen.startsPerNode(spark, lams).collect())
      assert(e2.getMessage.contains(s"walk count lam must be >= 1, got $lam for node"), e2.getMessage)
    }
  }

  test("annotate attaches the target's initial opinion of the end node") {
    val w = gen(inst, 3)
    val ann = WalkGen.annotate(w, inst, obsIsWalk = false)
    val b0 = Map(0L -> 0.40, 1L -> 0.80, 2L -> 0.60, 3L -> 0.90)
    val joined = w.select(col("wid"), col("end")).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    ann.collect().foreach { r =>
      val wid = r.getLong(0)
      assert(math.abs(r.getDouble(4) - b0(joined(wid))) < 1e-12)
      assert(!r.getBoolean(5)) // covered starts false
    }
  }

  test("annotate keys observations by walk for sketches") {
    val w = gen(inst, 2)
    val byWalk = WalkGen.annotate(w, inst, obsIsWalk = true)
    assert(byWalk.filter(col("obs") =!= col("wid")).count() == 0)
    val byNode = WalkGen.annotate(w, inst, obsIsWalk = false)
    assert(byNode.filter(col("obs") =!= col("start")).count() == 0)
  }

  test("annotate runs at most one Spark job") {
    val w = gen(inst, 3)
    Methods.targetStubbornness(inst) // the instance collects its profile here
    val (_, jobs) = JobCounter(spark)(WalkGen.annotate(w, inst, obsIsWalk = false))
    assert(jobs <= 1, s"$jobs jobs")
  }
}
