package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{GraphOps, Instance}
import repro.expts.{Datasets, RunningExample}

class CentralitySpec extends SparkSpec {
  import spark.implicits._

  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-cen", "tiny", 20, 70, 2, 0, 0, 433), t = 3)

  /** Star graph: node 0 points at everyone — maximal out-degree & influence. */
  private lazy val star: Instance = {
    val raw = (1L until 8L).map(v => (0L, v, 1.0)).toDF("src", "dst", "w")
    val edges = GraphOps.normalize(spark, raw, 8)
    RunningExample.instance(spark).copy(edges = edges, n = 8, t = 2)
  }

  test("degree picks the star center first") {
    assert(Centrality.degree(star, 1) == Seq(0L))
  }

  test("degree returns k distinct nodes ordered by weighted out-degree") {
    val s = Centrality.degree(rnd, 5)
    assert(s.length == 5 && s.distinct.length == 5)
    val deg = GraphOps.weightedOutDegree(spark, rnd.edges, rnd.n)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    s.sliding(2).foreach {
      case Seq(a, b) => assert(deg(a) >= deg(b) - 1e-12)
      case _         =>
    }
  }

  test("PageRank masses stay near a probability distribution") {
    // Access the iteration through the public API: ranks of all n nodes.
    val all = Centrality.pageRank(rnd, rnd.n.toInt)
    assert(all.toSet == (0L until rnd.n).toSet)
  }

  test("PageRank ranks an authority sink above leaves") {
    // Reverse star: everyone points at node 0.
    val raw = (1L until 8L).map(v => (v, 0L, 1.0)).toDF("src", "dst", "w")
    val sink = star.copy(edges = GraphOps.normalize(spark, raw, 8))
    assert(Centrality.pageRank(sink, 1) == Seq(0L))
  }

  test("RWR restart favors nodes near high-initial-opinion regions") {
    // Two isolated 2-cycles {0,1} and {2,3}; target opinion mass only on {2,3}.
    val raw = Seq((0L, 1L, 1.0), (1L, 0L, 1.0), (2L, 3L, 1.0), (3L, 2L, 1.0))
      .toDF("src", "dst", "w")
    val prof = Seq(
      (0L, 0, 0.0, 0.5), (1L, 0, 0.0, 0.5), (2L, 0, 0.9, 0.5), (3L, 0, 0.9, 0.5),
      (0L, 1, 0.5, 0.5), (1L, 1, 0.5, 0.5), (2L, 1, 0.5, 0.5), (3L, 1, 0.5, 0.5),
    ).toDF("node", "cand", "b0", "d")
    val i = Instance(GraphOps.normalize(spark, raw, 4), prof, 4, 2, 0, 2)
    val top2 = Centrality.rwr(i, 2).toSet
    assert(top2 == Set(2L, 3L))
  }

  test("RWR and PageRank agree when initial opinions are uniform") {
    val uni = rnd.copy(profile = rnd.profile.withColumn("b0", lit(0.5)))
    assert(Centrality.rwr(uni, 5) == Centrality.pageRank(uni, 5))
  }

  test("all centrality baselines return the requested k") {
    assert(Centrality.degree(rnd, 3).length == 3)
    assert(Centrality.pageRank(rnd, 3).length == 3)
    assert(Centrality.rwr(rnd, 3).length == 3)
  }

  test("every centrality baseline rejects k outside [1, n]") {
    for (k <- Seq(0, rnd.n.toInt + 1)) {
      intercept[IllegalArgumentException](Centrality.degree(rnd, k))
      intercept[IllegalArgumentException](Centrality.pageRank(rnd, k))
      intercept[IllegalArgumentException](Centrality.rwr(rnd, k))
    }
  }
}
