package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{JobCounter, SparkSpec}
import repro.baselines.RRSets
import repro.expts.{Datasets, RunningExample}
import repro.walks.{Bounds, Methods, WalkGen, WalkGreedy}

/** The per-root traversal kernel behind reverse walks, RR sets and t-hop
  * reach: results independent of partitioning, sampling frequencies that
  * match exact enumeration, reach that matches a plain forward BFS, lists
  * equal to those of the Spark kernel it replaced, and no Spark job beyond
  * the collects of the DataFrame views.
  */
class TraversalSpec extends SparkSpec {
  import spark.implicits._

  /** A fixed random instance, n = 30, built without any Spark randomness. */
  private lazy val rnd: Instance = {
    val rng = new scala.util.Random(5)
    val raw = Seq.fill(120)((rng.nextInt(30).toLong, rng.nextInt(30).toLong, 0.05 + rng.nextDouble()))
      .filter(e => e._1 != e._2).toDF("src", "dst", "w")
    val profile = (for (v <- 0L until 30L; c <- 0 until 2) yield (v, c, rng.nextDouble(), rng.nextDouble()))
      .toDF("node", "cand", "b0", "d")
    Instance(GraphOps.normalize(spark, raw, 30).localCheckpoint(true), profile.localCheckpoint(true),
      30, 2, 0, 4)
  }

  private def fingerprint(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq

  /** `body` run with `shuffle` shuffle partitions. */
  private def withShufflePartitions[A](shuffle: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    spark.conf.set(key, shuffle.toLong)
    try body finally spark.conf.set(key, saved)
  }

  /** Every sampler's output, with starts, roots and edges in `parts`
    * partitions and `shuffle` shuffle partitions.
    */
  private def samples(parts: Int, shuffle: Int): Seq[Seq[String]] = withShufflePartitions(shuffle) {
    val d = Methods.targetStubbornness(rnd)
    val rw = WalkGen.uniformStarts(spark, rnd.n, 3).repartition(parts)
    val rs = WalkGen.sketchStarts(spark, rnd.n, 200, 3).repartition(parts)
    val roots = RRSets.sampleRoots(spark, rnd.n, 200, 4).repartition(parts)
    val edges = rnd.edges.repartition(parts)
    Seq(WalkGen.generate(spark, edges, d, rw, 4, 5), WalkGen.generate(spark, edges, d, rs, 4, 6), rs, roots,
      RRSets.sampleIC(spark, edges, roots, 3, 7), RRSets.sampleLT(spark, edges, roots, 3, 8),
      GraphOps.reachWithin(spark, edges, rnd.n, 3)).map(fingerprint)
  }

  test("walks, RR sets and reach do not depend on partitioning") {
    assert(samples(1, 4) == samples(7, 64))
  }

  /** RW (cumulative, plurality) and RS (Copeland) greedy runs, with starts
    * and edges in `parts` partitions and `shuffle` shuffle partitions.
    */
  private def greedyRuns(parts: Int, shuffle: Int): Seq[WalkGreedy.Result] = withShufflePartitions(shuffle) {
    val d = Methods.targetStubbornness(rnd)
    val edges = rnd.edges.repartition(parts)
    def run(score: VoteScore, starts: DataFrame, obsIsWalk: Boolean, scale: Double, seed: Long) =
      WalkGreedy.select(rnd, score, 4, WalkGen.annotate(
        WalkGen.generate(spark, edges, d, starts.repartition(parts), rnd.t, seed), rnd, obsIsWalk), scale)
    Seq(run(Cumulative, WalkGen.uniformStarts(spark, rnd.n, 20), false, 1.0, 11),
      run(Plurality(2), WalkGen.uniformStarts(spark, rnd.n, 20), false, 1.0, 12),
      run(Copeland, WalkGen.sketchStarts(spark, rnd.n, 600, 13), true, rnd.n / 600.0, 14))
  }

  test("RW and RS seeds and estimate trajectories do not depend on partitioning") {
    assert(greedyRuns(1, 4) == greedyRuns(7, 64))
  }

  test("RS, RW and RR-set selection pick the seeds of the walks and sets over the DataFrame starts and roots") {
    val d = Methods.targetStubbornness(rnd)
    def walkGreedy(score: VoteScore, starts: DataFrame, obsIsWalk: Boolean, scale: Double, seed: Long) =
      WalkGreedy.select(rnd, score, 3, WalkGen.annotate(
        WalkGen.generate(spark, rnd.edges, d, starts, rnd.t, seed), rnd, obsIsWalk), scale)
    assert(Methods.rs(rnd, Copeland, 3, seed = 21, thetaOverride = Some(400L)) ==
      walkGreedy(Copeland, WalkGen.sketchStarts(spark, rnd.n, 400, 21), true, rnd.n / 400.0, 22))
    assert(Methods.rw(rnd, Cumulative, 3, seed = 23, lambdaOverride = Some(6)) ==
      walkGreedy(Cumulative, WalkGen.uniformStarts(spark, rnd.n, 6), false, 1.0, 23))
    assert(Methods.rw(rnd, Plurality(2), 3, seed = 24, lambdaCap = 8) == walkGreedy(Plurality(2),
      WalkGen.startsPerNode(spark, Bounds.lambdaPerNode(rnd, 0.9, lambdaCap = 8)), false, 1.0, 24))
    val roots = RRSets.sampleRoots(spark, rnd.n, 300, 25)
    assert(RRSets.select(rnd, "ic", 3, 300L, seed = 25) ==
      RRSets.greedyCover(RRSets.sampleIC(spark, rnd.edges, roots, rnd.t, 26), 3, rnd.n))
    assert(RRSets.select(rnd, "lt", 3, 300L, seed = 25) ==
      RRSets.greedyCover(RRSets.sampleLT(spark, rnd.edges, roots, rnd.t, 26), 3, rnd.n))
  }

  test("a uniform start or root depends on its id only") {
    def prefix(df: DataFrame) = fingerprint(df.filter(col(df.columns.head) < 100))
    assert(prefix(WalkGen.sketchStarts(spark, 30, 100, 3)) == prefix(WalkGen.sketchStarts(spark, 30, 900, 3)))
    assert(prefix(RRSets.sampleRoots(spark, 30, 100, 4)) == prefix(RRSets.sampleRoots(spark, 30, 900, 4)))
  }

  test("sketchStarts and sampleRoots match the replaced RDD views") {
    for ((view, names, seed) <- Seq((WalkGen.sketchStarts(spark, 30, 500, 3), Seq("wid", "start"), 3L),
                                    (RRSets.sampleRoots(spark, 30, 500, 4), Seq("rr", "node"), 4L))) {
      val ref = spark.createDataFrame(SparkTraversal.uniformNodes(spark.sparkContext, 30, 500, seed)).toDF(names: _*)
      assert(view.schema == ref.schema && view.collect().toSeq == ref.collect().toSeq, names)
    }
  }

  test("IC and LT RR-set inclusion frequencies match exact enumeration") {
    // Node 2 has a partial self-loop; node 4 has no in-edges, so it gets a full one.
    val raw = Seq((1L, 0L, 1.0), (2L, 0L, 2.0), (0L, 1L, 1.0), (3L, 1L, 1.0), (1L, 2L, 1.0), (2L, 2L, 1.0),
      (4L, 3L, 1.0), (2L, 3L, 1.0)).toDF("src", "dst", "w")
    val edges = GraphOps.normalize(spark, raw, 5).localCheckpoint(true)
    val es = edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2))).sorted
    assert(es.length <= 12)
    val (root, depth, theta) = (0, 3, 20000)

    // IC: every live-edge world, reverse BFS from the root to `depth`.
    val ic = new Array[Double](5)
    for (world <- 0 until 1 << es.length) {
      val isLive = es.indices.map(i => (world >> i & 1) == 1)
      val p = es.indices.map(i => if (isLive(i)) es(i)._3 else 1 - es(i)._3).product
      val live = es.indices.filter(isLive).map(es)
      var reached = Set(root)
      var frontier = Set(root)
      for (_ <- 1 to depth) {
        frontier = live.filter(e => frontier(e._2)).map(_._1).toSet -- reached
        reached ++= frontier
      }
      reached.foreach(ic(_) += p)
    }
    // LT: every reverse path, ending at a revisit (self-loops included) or
    // a full self-loop, or after `depth` steps.
    val lt = new Array[Double](5)
    def walk(path: Vector[Int], p: Double): Unit =
      if (path.length > depth) path.foreach(lt(_) += p)
      else es.filter(_._2 == path.last).foreach { case (u, _, w) =>
        if (path.contains(u)) path.foreach(lt(_) += p * w) else walk(path :+ u, p * w)
      }
    walk(Vector(root), 1.0)

    val roots = (0 until theta).map(i => (i.toLong, root.toLong)).toDF("rr", "node")
    for ((name, rr, exact) <- Seq(("IC", RRSets.sampleIC(spark, edges, roots, depth, 9), ic),
                                  ("LT", RRSets.sampleLT(spark, edges, roots, depth, 10), lt))) {
      val counts = rr.groupBy("node").count().collect().map(r => r.getLong(0).toInt -> r.getLong(1)).toMap
      for (v <- 0 until 5) {
        val (freq, p) = (counts.getOrElse(v, 0L).toDouble / theta, exact(v))
        val tol = 4 * math.sqrt(p * (1 - p) / theta) + 1e-9
        assert(math.abs(freq - p) <= tol, s"$name node $v: frequency $freq vs exact $p")
      }
    }
  }

  test("reachWithin equals a forward BFS for t = 0 to 4") {
    val chain = GraphOps.normalize(spark,
      Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0)).toDF("src", "dst", "w"), 4).localCheckpoint(true)
    for ((edges, n) <- Seq((RunningExample.instance(spark).edges, 4L), (chain, 4L), (rnd.edges, rnd.n))) {
      val out = edges.collect().map(r => (r.getLong(0), r.getLong(1))).groupMap(_._1)(_._2)
      var reach = (0L until n).map(v => (v, v)).toSet
      for (t <- 0 to 4) {
        val got = GraphOps.reachWithin(spark, edges, n, t).collect().map(r => (r.getLong(0), r.getLong(1)))
        assert(got.length == reach.size && got.toSet == reach, s"t=$t")
        reach ++= reach.flatMap { case (root, v) => out.getOrElse(v, Array.empty[Long]).map(root -> _) }
      }
    }
  }

  test("walks, RR sets and reach views run only their collects") {
    val starts = WalkGen.uniformStarts(spark, rnd.n, 2).localCheckpoint(true)
    val roots = RRSets.sampleRoots(spark, rnd.n, 100, 1).localCheckpoint(true)
    for (t <- Seq(1, 8)) {
      val jobs = Seq(
        JobCounter(spark)(WalkGen.generate(spark, rnd.edges, Methods.targetStubbornness(rnd), starts, t, 1))._2,
        JobCounter(spark)(GraphOps.reachWithin(spark, rnd.edges, rnd.n, t))._2,
        JobCounter(spark)(RRSets.sampleIC(spark, rnd.edges, roots, t, 2))._2,
        JobCounter(spark)(RRSets.sampleLT(spark, rnd.edges, roots, t, 3))._2)
      // One job per checkpointed input collected: the edges, and the starts or roots.
      assert(jobs == Seq(2, 1, 2, 2), s"t=$t: jobs of generate, reachWithin, sampleIC, sampleLT = $jobs")
    }
  }

  test("RS, RW, RR-set selection and coverageGreedy run no Spark job") {
    rnd.targetScore(Plurality(2), Nil) // collects the profile and the CSR, diffuses the horizon
    val fixed = Sandwich.favorableUsers(rnd, 1)
    val sc = spark.sparkContext
    sc.setJobDescription("caller's description")
    val (jobs, described) = try (Seq(
      JobCounter(spark)(Methods.rs(rnd, Plurality(2), 2, seed = 3, thetaOverride = Some(300L)))._2,
      JobCounter(spark)(Methods.rw(rnd, Plurality(2), 2, seed = 4, lambdaOverride = Some(5)))._2,
      JobCounter(spark)(RRSets.select(rnd, "ic", 2, 300L, seed = 5))._2,
      JobCounter(spark)(RRSets.select(rnd, "lt", 2, 300L, seed = 6))._2,
      JobCounter(spark)(Sandwich.coverageGreedy(rnd, fixed, 2, 1.0))._2),
      sc.getLocalProperty("spark.job.description"))
    finally sc.setJobDescription(null)
    assert(jobs.forall(_ == 0), s"jobs of rs, rw, select ic, select lt, coverageGreedy = $jobs")
    assert(described == "caller's description")
  }

  test("packed walks, RR sets and reach are the rows of the tuple-form kernel") {
    val (_, d) = rnd.targetDense(Nil)
    val starts = (0L until rnd.n).flatMap(WalkGen.nodeStarts(_, 3))
    val roots = GraphOps.uniformNodes(rnd.n, 300, 51)
    val walks = WalkGen.walks(rnd.csr, d, starts, rnd.t, 52)
    for (parts <- Seq(1, 7)) {
      assert((0 until walks.size).map(i => (walks.roots(i), walks.nodes(walks.off(i)).toLong,
        walks.nodesOf(i).map(_.toLong).toSeq)) ==
        TupleTraversal.walks(rnd.csr, d, spark.sparkContext.parallelize(starts, parts), rnd.t, 52).toSeq)
      for (model <- Seq("ic", "lt"))
        assert(RRSets.sample(rnd.csr, model, roots, rnd.t, 53).pairs.map(_.swap) ==
          TupleTraversal.sample(rnd.csr, model, spark.sparkContext.parallelize(roots, parts), rnd.t, 53).toSeq, model)
    }
    for (t <- Seq(0, 1, 4))
      assert(GraphOps.reach(rnd.csr, 0L until rnd.n, t).pairs == TupleTraversal.reach(rnd.csr, rnd.n, t).toSeq,
        s"t=$t")
  }

  test("walks, RR sets and reach are sameElements of the Spark kernel") {
    val shapes = Seq(Datasets.Spec("greedy", "greedy", 120, 720, 4, 0, 0, 7),
      Datasets.Spec("win", "win", 150, 900, 2, 0, 0, 7)).map(Datasets.instance(spark, _))
    def same(what: String, got: GraphOps.Packed, ref: GraphOps.Packed): Unit =
      assert(got.roots.sameElements(ref.roots) && got.off.sameElements(ref.off) && got.nodes.sameElements(ref.nodes),
        what)
    var sources = 0
    for ((inst, i) <- (rnd +: shapes).zipWithIndex; t <- Seq(0, 1, 2, 8)) {
      val (csr, n, (_, d)) = (inst.csr, inst.n, inst.targetDense(Nil))
      // Nodes whose only in-edge is the full self-loop of normalization are roots and starts too.
      val selfOnly = (0 until n.toInt).filter(v => csr.in(v).size == 1 && csr.w(csr.off(v)) == 1.0)
      sources += selfOnly.size
      val starts = (0L until n).flatMap(WalkGen.nodeStarts(_, 3))
      val roots = GraphOps.uniformNodes(n, 300, 61) ++ selfOnly.map(v => (1000L + v, v.toLong))
      val sc = spark.sparkContext
      same(s"walks $i t=$t", WalkGen.walks(csr, d, starts, t, 62),
        SparkTraversal.walks(csr, d, sc.parallelize(starts, 4), t, 62))
      for (model <- Seq("ic", "lt"))
        same(s"$model $i t=$t", RRSets.sample(csr, model, roots, t, 63),
          SparkTraversal.sample(csr, model, sc.parallelize(roots, 4), t, 63))
      same(s"reach $i t=$t", GraphOps.reach(csr, 0L until n, t), SparkTraversal.reach(csr, n, t))
    }
    assert(sources > 0)
  }
}
