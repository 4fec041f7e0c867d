package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.GraphOps
import repro.expts.{Datasets, RunningExample}

class RRSetsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-rr", "tiny", 25, 90, 2, 0, 0, 449), t = 3)

  /** Deterministic chain 0 -> 1 -> 2 -> 3 with weight-1 edges. */
  private lazy val chain = {
    val raw = Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0)).toDF("src", "dst", "w")
    RunningExample.instance(spark).copy(
      edges = GraphOps.normalize(spark, raw, 4).localCheckpoint(true), n = 4, t = 3)
  }

  test("roots are within range and theta rows are produced") {
    val roots = RRSets.sampleRoots(spark, rnd.n, 300, seed = 1)
    assert(roots.count() == 300)
    assert(roots.filter(col("node") < 0 || col("node") >= rnd.n).count() == 0)
  }

  test("every RR set contains its root") {
    val roots = RRSets.sampleRoots(spark, rnd.n, 100, seed = 2)
    for (model <- Seq("ic", "lt")) {
      val rr = if (model == "ic") RRSets.sampleIC(spark, rnd.edges, roots, 3, 3)
               else RRSets.sampleLT(spark, rnd.edges, roots, 3, 3)
      val missing = roots.join(rr, Seq("rr", "node"), "left_anti").count()
      assert(missing == 0, model)
    }
  }

  test("IC with weight-1 edges is full reverse reachability (chain)") {
    val roots = Seq((0L, 3L)).toDF("rr", "node") // root at the chain's end
    val rr = RRSets.sampleIC(spark, chain.edges, roots, maxDepth = 3, seed = 4)
    assert(rr.collect().map(_.getLong(1)).toSet == Set(0L, 1L, 2L, 3L))
  }

  test("IC respects maxDepth") {
    val roots = Seq((0L, 3L)).toDF("rr", "node")
    val rr = RRSets.sampleIC(spark, chain.edges, roots, maxDepth = 1, seed = 5)
    assert(rr.collect().map(_.getLong(1)).toSet == Set(2L, 3L))
  }

  test("LT RR sets are reverse paths: at most maxDepth+1 nodes per set") {
    val roots = RRSets.sampleRoots(spark, rnd.n, 200, seed = 6)
    val rr = RRSets.sampleLT(spark, rnd.edges, roots, maxDepth = 3, seed = 7)
    val sizes = rr.groupBy("rr").count().agg(max("count")).head.getLong(0)
    assert(sizes <= 4)
  }

  test("LT on the deterministic chain walks back to the source") {
    val roots = Seq((0L, 3L)).toDF("rr", "node")
    val rr = RRSets.sampleLT(spark, chain.edges, roots, maxDepth = 3, seed = 8)
    assert(rr.collect().map(_.getLong(1)).toSet == Set(0L, 1L, 2L, 3L))
  }

  test("LT stops at weight-1 self-loops (sources)") {
    val roots = Seq((0L, 3L)).toDF("rr", "node")
    val rr = RRSets.sampleLT(spark, chain.edges, roots, maxDepth = 10, seed = 9)
    assert(rr.count() == 4) // no infinite self-loop looping
  }

  test("greedyCover picks the node covering the most RR sets") {
    val rr = Seq((0L, 5L), (0L, 6L), (1L, 5L), (2L, 5L), (3L, 7L))
      .toDF("rr", "node")
    val seeds = RRSets.greedyCover(rr, 2, 10)
    assert(seeds.head == 5L)       // covers RR sets 0,1,2
    assert(seeds(1) == 7L)         // covers the remaining set 3
  }

  test("greedyCover falls back to unused nodes when all sets are covered") {
    val rr = Seq((0L, 5L)).toDF("rr", "node")
    val seeds = RRSets.greedyCover(rr, 3, 10)
    assert(seeds.length == 3 && seeds.distinct.length == 3 && seeds.head == 5L)
  }

  test("select returns k distinct seeds under both models") {
    for (model <- Seq("ic", "lt")) {
      val s = RRSets.select(rnd, model, 4, theta = 400, seed = 10)
      assert(s.length == 4 && s.distinct.length == 4, model)
    }
    intercept[IllegalArgumentException](RRSets.select(rnd, "nope", 2, 10))
  }

  test("select rejects k > n") {
    intercept[IllegalArgumentException](RRSets.select(chain, "ic", 5, theta = 20, seed = 14))
  }

  test("IC seeds beat random seeds on expected coverage (sanity of the baseline)") {
    val s = RRSets.select(rnd, "ic", 3, theta = 600, seed = 11)
    val roots = RRSets.sampleRoots(spark, rnd.n, 600, seed = 12)
    val rr = RRSets.sampleIC(spark, rnd.edges, roots, rnd.t, seed = 13).localCheckpoint(true)
    def coverage(seeds: Seq[Long]): Long =
      rr.filter(col("node").isInCollection(seeds)).select("rr").distinct().count()
    val randomSeeds = Seq(1L, 7L, 13L)
    assert(coverage(s) >= coverage(randomSeeds))
  }
}
