package repro.baselines

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
    val roots = GraphOps.uniformNodes(rnd.n, 300, seed = 1)
    assert(roots.size == 300)
    assert(roots.forall { case (_, v) => v >= 0 && v < rnd.n })
    // With replacement: expect collisions for 300 draws over 25 nodes.
    assert(roots.map(_._2).distinct.size < 300)
  }

  test("every RR set contains its root") {
    val roots = GraphOps.uniformNodes(rnd.n, 100, seed = 2)
    for (model <- Seq("ic", "lt")) {
      val rr = RRSets.sample(GraphOps.inCsr(rnd.edges), model, roots, 3, 3).pairs.map(_.swap).toSet
      val missing = roots.count(!rr(_))
      assert(missing == 0, model)
    }
  }

  test("IC with weight-1 edges is full reverse reachability (chain)") {
    val roots = Seq((0L, 3L)) // root at the chain's end
    val rr = RRSets.sample(GraphOps.inCsr(chain.edges), "ic", roots, maxDepth = 3, seed = 4)
    assert(rr.nodes.map(_.toLong).toSet == Set(0L, 1L, 2L, 3L))
  }

  test("IC respects maxDepth") {
    val roots = Seq((0L, 3L))
    val rr = RRSets.sample(GraphOps.inCsr(chain.edges), "ic", roots, maxDepth = 1, seed = 5)
    assert(rr.nodes.map(_.toLong).toSet == Set(2L, 3L))
  }

  test("LT RR sets are reverse paths: at most maxDepth+1 nodes per set") {
    val roots = GraphOps.uniformNodes(rnd.n, 200, seed = 6)
    val rr = RRSets.sample(GraphOps.inCsr(rnd.edges), "lt", roots, maxDepth = 3, seed = 7)
    val sizes = (0 until rr.size).map(i => rr.off(i + 1) - rr.off(i)).max
    assert(sizes <= 4)
  }

  test("LT on the deterministic chain walks back to the source") {
    val roots = Seq((0L, 3L))
    val rr = RRSets.sample(GraphOps.inCsr(chain.edges), "lt", roots, maxDepth = 3, seed = 8)
    assert(rr.nodes.map(_.toLong).toSet == Set(0L, 1L, 2L, 3L))
  }

  test("LT stops at weight-1 self-loops (sources)") {
    val roots = Seq((0L, 3L))
    val rr = RRSets.sample(GraphOps.inCsr(chain.edges), "lt", roots, maxDepth = 10, seed = 9)
    assert(rr.nodes.length == 4) // no infinite self-loop looping
  }

  test("maxCoverage picks the node covering the most RR sets") {
    val rr = Seq((0L, 5L), (0L, 6L), (1L, 5L), (2L, 5L), (3L, 7L))
    val seeds = GraphOps.maxCoverage(rr.map(_.swap), 2, 10).map(_._1)
    assert(seeds.head == 5L)       // covers RR sets 0,1,2
    assert(seeds(1) == 7L)         // covers the remaining set 3
  }

  test("maxCoverage falls back to unused nodes when all sets are covered") {
    val rr = Seq((0L, 5L))
    val seeds = GraphOps.maxCoverage(rr.map(_.swap), 3, 10).map(_._1)
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
    val roots = GraphOps.uniformNodes(rnd.n, 600, seed = 12)
    val rr = RRSets.sample(GraphOps.inCsr(rnd.edges), "ic", roots, rnd.t, seed = 13)
    def coverage(seeds: Seq[Long]): Long =
      (0 until rr.size).count(i => rr.nodesOf(i).exists(v => seeds.contains(v.toLong))).toLong
    val randomSeeds = Seq(1L, 7L, 13L)
    assert(coverage(s) >= coverage(randomSeeds))
  }
}
