package repro.core

import org.apache.spark.sql.functions._
import repro.{JobCounter, Oracle, SparkSpec}

class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  private def raw = Seq(
    (0L, 1L, 2.0), (2L, 1L, 2.0),             // node 1: two in-edges, equal raw weight
    (1L, 2L, 1.0),                             // node 2: single in-edge
    (0L, 3L, 1.0), (1L, 3L, 3.0),              // node 3: skewed in-weights
  ).toDF("src", "dst", "w")

  private lazy val edges = GraphOps.normalize(spark, raw, 5).localCheckpoint(true)

  test("normalize yields a column-stochastic matrix") {
    assert(GraphOps.isColumnStochastic(edges, 5))
  }

  test("normalize scales parallel in-weights proportionally") {
    val m = edges.filter(col("dst") === 3).collect()
      .map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(math.abs(m(0L) - 0.25) < 1e-12)
    assert(math.abs(m(1L) - 0.75) < 1e-12)
  }

  test("normalize combines duplicate (src,dst) pairs before scaling") {
    val dup = Seq((0L, 1L, 1.0), (0L, 1L, 1.0), (2L, 1L, 2.0)).toDF("src", "dst", "w")
    val e = GraphOps.normalize(spark, dup, 3)
    val m = e.filter(col("dst") === 1).collect().map(r => r.getLong(0) -> r.getDouble(2)).toMap
    assert(math.abs(m(0L) - 0.5) < 1e-12 && math.abs(m(2L) - 0.5) < 1e-12)
  }

  test("normalize drops non-positive weights") {
    val e = GraphOps.normalize(spark, Seq((0L, 1L, -1.0), (2L, 1L, 1.0)).toDF("src", "dst", "w"), 3)
    assert(e.filter(col("dst") === 1 && col("src") === 0).isEmpty)
  }

  test("nodes with no in-edges (0 and 4) get weight-1 self-loops") {
    val loops = edges.filter(col("src") === col("dst")).collect()
    assert(loops.map(_.getLong(0)).toSet == Set(0L, 4L))
    assert(loops.forall(_.getDouble(2) == 1.0))
  }

  test("isColumnStochastic rejects an unnormalized graph") {
    assert(!GraphOps.isColumnStochastic(raw, 5))
  }

  test("isColumnStochastic rejects in-edges on a node outside 0 until n") {
    // Node 4's self-loop moved to a node 5: every in-weight total is 1, and 5 nodes have in-edges.
    val moved = edges.filter(col("dst") =!= 4).unionByName(Seq((0L, 5L, 1.0)).toDF("src", "dst", "w"))
    assert(!GraphOps.isColumnStochastic(moved, 5))
  }

  /** The defect of edges `es` `(src, dst, w)` over nodes `0 until n`. */
  private def defectOf(es: Seq[(Long, Long, Double)], n: Int): Option[String] =
    GraphOps.edgeDefect(GraphOps.inCsr(es.toDF("src", "dst", "w")), n)

  test("edgeDefect reports each defect at its smallest node, in a fixed order") {
    val ok = edges.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
    assert(defectOf(ok, 5).isEmpty)
    assert(defectOf(ok ++ Seq((0L, 6L, 1.0), (0L, 5L, 1.0)), 5).contains("node 5 has in-edges but no profile row"))
    assert(defectOf(ok ++ Seq((7L, 3L, 0.5), (6L, 2L, 0.5)), 5)
      .contains("an in-edge of node 2 comes from a node with no profile row"))
    assert(defectOf(ok.filterNot(e => e._2 == 4 || e._2 == 1), 5)
      .contains("node 1 has no in-edges; normalize the edges first"))
    assert(defectOf(ok.filterNot(_._2 == 4), 5).contains("node 4 has no in-edges; normalize the edges first"))
    val halved = ok.map { case (s, d, w) => (s, d, if (d == 2 || d == 3) w / 2 else w) }
    assert(defectOf(halved, 5).exists(_.startsWith("the in-edge weights of node 2 sum to 0.5, not 1")))
    // A source outside 0 until n comes before a node with no in-edges, which comes before skewed weights.
    assert(defectOf(ok.filterNot(_._2 == 1) :+ ((6L, 3L, 0.0)), 5).exists(_.startsWith("an in-edge of node 3")))
    assert(defectOf(halved.filterNot(_._2 == 4), 5).exists(_.startsWith("node 4 has no in-edges")))
  }

  // The in-edge CDF is `InCsr.hi`: edge `e` into `v` covers `[hi(e) − w(e), hi(e))`.
  private def cdfBounds(csr: GraphOps.InCsr, v: Int): Seq[Double] = 0.0 +: csr.in(v).map(csr.hi)

  test("inEdgeCdf tiles [0,1) per destination") {
    val csr = GraphOps.inCsr(edges)
    for (v <- 0 until 5) {
      val bounds = cdfBounds(csr, v)
      assert(bounds.length > 1)                                     // every node has an in-edge
      bounds.sliding(2).foreach { case Seq(lo, hi) => assert(lo < hi) }
      assert(math.abs(bounds.last - 1.0) < 1e-12)                   // last hi = 1
    }
  }

  test("inEdgeCdf intervals have width equal to the edge weight") {
    val csr = GraphOps.inCsr(edges)
    for (v <- 0 until 5; (e, i) <- csr.in(v).zipWithIndex) {
      val bounds = cdfBounds(csr, v)
      assert(math.abs(bounds(i + 1) - bounds(i) - csr.w(e)) < 1e-12)
    }
  }

  test("inCsr holds each edge once, sources ascending; pick finds the interval of a draw") {
    val csr = GraphOps.inCsr(edges)
    val rows = for (v <- 0 until 5; e <- csr.in(v)) yield (csr.src(e).toLong, v.toLong, csr.w(e))
    assert(rows.sorted == edges.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq.sorted)
    for (v <- 0 until 5) {
      val in = csr.in(v)
      assert(in.map(csr.src) == in.map(csr.src).sorted)
      val bounds = cdfBounds(csr, v)
      in.indices.foreach(i => assert(csr.pick(v, bounds(i)) == in(i)))
      assert(csr.pick(v, bounds.last) == in.last && csr.pick(v, 1.0) == in.last)
    }
  }

  test("reachWithin at t=0 is the identity relation") {
    val r = GraphOps.reachWithin(spark, edges, 5, 0).collect()
    assert(r.length == 5 && r.forall(x => x.getLong(0) == x.getLong(1)))
  }

  test("reachWithin follows directed edges hop by hop") {
    // 0 -> 1 -> {2,3}, 2 -> 1: reach(0, t=1) = {0,1,3}; reach(0, t=2) adds 2.
    val r1 = GraphOps.reachWithin(spark, edges, 5, 1)
      .filter(col("root") === 0).collect().map(_.getLong(1)).toSet
    assert(r1 == Set(0L, 1L, 3L))
    val r2 = GraphOps.reachWithin(spark, edges, 5, 2)
      .filter(col("root") === 0).collect().map(_.getLong(1)).toSet
    assert(r2 == Set(0L, 1L, 2L, 3L))
  }

  test("reachWithin is monotone in t") {
    val c2 = GraphOps.reachWithin(spark, edges, 5, 2).count()
    val c3 = GraphOps.reachWithin(spark, edges, 5, 3).count()
    assert(c3 >= c2)
  }

  test("reachWithin stops early when the frontier empties") {
    // With t far beyond the diameter the result must equal transitive closure.
    val r10 = GraphOps.reachWithin(spark, edges, 5, 10).count()
    val r4 = GraphOps.reachWithin(spark, edges, 5, 4).count()
    assert(r10 == r4)
  }

  test("maxCoverage returns each pick's new coverage, ties to the smaller id, then unpicked ids") {
    // Set 1 covers {11, 12}, set 2 covers {10, 11}, set 3 covers {13}.
    val pairs = Seq((2L, 10L), (2L, 11L), (1L, 11L), (1L, 12L), (3L, 13L))
    assert(GraphOps.maxCoverage(pairs, 5, 5) == Seq(1L -> 2L, 2L -> 1L, 3L -> 1L, 0L -> 0L, 4L -> 0L))
    intercept[IllegalArgumentException](GraphOps.maxCoverage(pairs, 6, 5))
    intercept[IllegalArgumentException](GraphOps.maxCoverage(pairs, 0, 5))
  }

  test("maxCoverage runs as many Spark jobs for k = 1 as for k = 5") {
    val pairs = Seq((2L, 10L), (2L, 11L), (1L, 11L), (1L, 12L), (3L, 13L))
    def jobs(k: Int) = JobCounter(spark)(GraphOps.maxCoverage(pairs, k, 5))._2
    assert(Seq(jobs(1), jobs(5)) == Seq(0, 0))
  }

  test("weightedOutDegree excludes self-loops and defaults to 0") {
    val deg = GraphOps.weightedOutDegree(spark, edges, 5).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(deg(4L) == 0.0)               // isolated node: only a self-loop
    assert(deg(0L) > 0 && deg(1L) > 0)
    assert(deg.size == 5)
  }

  test("weightedOutDegree matches DuckDB") {
    val got = GraphOps.weightedOutDegree(spark, edges, 5)
      .select(col("node").cast("long").as("node"), round(col("outdeg"), 6).as("outdeg"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(n.node AS BIGINT) AS node,
        |       ROUND(COALESCE(SUM(CAST(e.w AS DOUBLE)), 0), 6) AS outdeg
        |FROM nodes n LEFT JOIN edges e
        |  ON CAST(e.src AS BIGINT) = CAST(n.node AS BIGINT) AND e.src <> e.dst
        |GROUP BY n.node""".stripMargin,
      "edges" -> edges,
      "nodes" -> spark.range(5).toDF("node"),
    )
  }
}
