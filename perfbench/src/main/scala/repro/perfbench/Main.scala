package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.walks.{Methods, WalkGen, WalkGreedy}
import scala.util.control.NonFatal

/** Benchmark entry point: one workload, one seed, one closed-loop client.
  *
  *   --workload exact_greedy|walk_select|win_search --seed N --seconds S
  *   --trace 0|1
  *
  * Set-up starts the pinned Spark session, builds the instance from the
  * seed several times (reporting the median) and runs one warm-up pass of
  * the workload for JIT and code generation. Then a single driver thread
  * runs timed passes of the workload's queries, one query after another,
  * for about `--seconds` and at least [[MinPasses]] times. The times and
  * the seed quality are medians over these passes; the retained heap is
  * read after the first, since it grows with the pass count. Every query's
  * output is checked against the plain-Scala reference; a query that throws
  * or fails a check counts as failed, in the warm-up pass too. `--trace 1`
  * runs the warm-up pass, then a traced pass between two untraced ones,
  * then the layer probes, and reports per-span statistics instead.
  *
  * The last line of standard output is the JSON result.
  */
object Main {

  private val SetupRepeats = 3
  private val MinPasses = 2

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.all.find(_.name == need("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${need("workload")}"))
    Args(wl, need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
  }

  /** One pass's numbers, in [[Clock]] time; `wallS` is the pass's plain wall
    * time and `stealS` the CPU time the host withheld meanwhile.
    */
  final case class Pass(passS: Double, selectS: Double, evalS: Double, quality: Double,
                        wallS: Double, stealS: Double, attempted: Int, failures: Seq[String])

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def retainedHeapMb(): Double = {
    // Spark's cleaner drops unreferenced checkpoint blocks once a GC has
    // cleared their references; give it time, then collect again.
    val mem = ManagementFactory.getMemoryMXBean
    mem.gc(); Thread.sleep(300); mem.gc(); Thread.sleep(300); mem.gc()
    mem.getHeapMemoryUsage.getUsed / 1e6
  }

  /** One pass: every query of the workload in order. Check time is excluded
    * from the pass time; reference results are cached across passes.
    */
  def runPass(wl: Workload, inst: Instance, checker: Checker, tracer: Option[Tracer]): Pass = {
    def span[A](name: String)(body: => A): A = tracer.fold(body)(_.span(name)(body))
    var selectS, evalS, checkS, checkWallS = 0.0
    val qualities = Seq.newBuilder[Double]
    val failures = Seq.newBuilder[String]
    val t0 = Clock.now()
    def check[A](body: => A): A = {
      val c0 = Clock.now()
      try body finally { checkS += Clock.since(c0); checkWallS += Clock.wallSince(c0) }
    }
    for (q <- wl.queries) {
      try {
        val s0 = Clock.now()
        val picked = span(q.span)(q.select(inst))
        selectS += Clock.since(s0)
        check(checker.selection(q, picked)) match {
          case Left(err) => failures += err
          case Right(quality) =>
            val e0 = Clock.now()
            if (q.win) {
              val found = span("WinSearch.minSeedsToWin")(WinSearch.minSeedsToWin(inst, q.score, picked.seeds))
              evalS += Clock.since(e0)
              check(checker.win(q, picked.seeds, found)).fold(failures += _, qualities += _)
            } else {
              val value = span("Instance.targetScore")(inst.targetScore(q.score, picked.seeds))
              evalS += Clock.since(e0)
              check(checker.evaluation(q, picked.seeds, value)) match {
                case Some(err) => failures += err
                case None => qualities += quality
              }
            }
        }
      } catch {
        case NonFatal(e) => failures += s"${q.label}: ${e.getClass.getSimpleName}: ${e.getMessage}"
      }
    }
    val passS = Clock.since(t0) - checkS
    val wallS = Clock.wallSince(t0) - checkWallS
    val stealS = Clock.stealSince(t0)
    val qs = qualities.result()
    val quality = if (qs.isEmpty) 0.0 else math.exp(qs.map(math.log).sum / qs.size)
    Pass(passS, selectS, evalS, quality, wallS, stealS, wl.queries.size, failures.result())
  }

  /** The probe queries and layer probes of a workload, one call each on its
    * own instance.
    */
  def runProbes(wl: Workload, in: Inputs, inst: Instance, tracer: Tracer, checker: Checker): Seq[String] = {
    val spark = inst.edges.sparkSession
    import spark.implicits._
    val ref = checker.ref
    val score = wl.queries.head.score
    val want = wl.probes.toSet
    val failures = Seq.newBuilder[String]

    for (q <- wl.probeQueries)
      checker.selection(q, tracer.span(q.span)(q.select(inst))).left.foreach(failures += _)

    if (want("GraphOps.normalize")) {
      val raw = in.rawEdges(spark)
      tracer.span("GraphOps.normalize")(GraphOps.normalize(spark, raw, in.n.toLong).localCheckpoint(true))
    }
    if (want("GraphOps.reachWithin"))
      tracer.span("GraphOps.reachWithin")(GraphOps.reachWithin(spark, inst.edges, inst.n, inst.t).count())
    val ops = tracer.span("OpinionDiffusion.diffuse")(OpinionDiffusion.diffuse(inst.edges, inst.profile, inst.t))
    failures ++= checker.opinions(ops.collect().map(r => (r.getLong(0), r.getInt(1), r.getDouble(2))))
    tracer.span("VoteScore.exact")(score.exact(ops, inst.q))
    if (want("OpinionDiffusion.diffuseScenarios")) {
      val scen = (0L until inst.n).toDF("scen")
      val targetOps = tracer.span("OpinionDiffusion.diffuseScenarios")(
        OpinionDiffusion.diffuseScenarios(inst.edges, inst.targetProfile(Nil), scen, inst.t))
      val comp = inst.competitorOpinions().localCheckpoint(true)
      val byScen = tracer.span("VoteScore.byScenario")(
        score.byScenario(targetOps, comp).collect().map(r => (r.getLong(0), r.getDouble(1))))
      val refScen = ref.scenarioScores(score, Nil)
      if (byScen.length != inst.n || byScen.exists { case (w, s) => math.abs(s - refScen(w.toInt)) > 1e-9 * math.max(1.0, s) })
        failures += "diffuseScenarios/byScenario: scenario scores differ from the reference"
    }
    if (want("Instance.wins") && tracer.span("Instance.wins")(inst.wins(score, Nil)) != ref.wins(score, Nil))
      failures += "Instance.wins differs from the reference"
    if (want("WalkGen.generate")) {
      val starts = WalkGen.uniformStarts(spark, inst.n, 4).localCheckpoint(true)
      val walks = tracer.span("WalkGen.generate")(
        WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst), starts, inst.t, 37))
      val annotated = tracer.span("WalkGen.annotate")(WalkGen.annotate(walks, inst, obsIsWalk = false))
      tracer.span("WalkGreedy.select")(WalkGreedy.select(inst, score, 1, annotated, scale = 1.0))
    }
    failures.result()
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val wl = a.workload
    val t0 = Clock.now()
    val spark = Session.start()
    val sessionS = Clock.since(t0)
    val config = Session.describe(spark)
    println(s"perfbench workload=${wl.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(s"config ${config.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    val exitCode = try run(a, spark, sessionS, config) finally spark.stop()
    sys.exit(exitCode)
  }

  private def run(a: Args, spark: SparkSession, sessionS: Double, config: Seq[(String, String)]): Int = {
    val wl = a.workload
    val tracer = if (a.trace) Some(new Tracer(spark.sparkContext)) else None

    // Set-up: build the instance several times, report the median build.
    val c0 = Clock.now()
    val shape = Workloads.shapeFor(wl, a.seed)
    val calibrateS = Clock.wallSince(c0)
    val builds = (1 to SetupRepeats).map { _ =>
      val b0 = Clock.now()
      val in = Inputs.generate(shape, a.seed)
      val inst = in.instance(spark)
      (in, inst, Clock.since(b0))
    }
    val (in, inst, _) = builds.last
    val prints = builds.map(_._1.fingerprint).distinct
    val k0 = Clock.now()
    println(f"input n=${in.n} edges=${in.src.length} r=${in.r} t=${shape.t} head_start=${shape.headStart} fingerprint=${prints.mkString(",")}")

    // Output checks of the set-up layer, untimed; the traced run's probes
    // check the diffusion layers.
    val ref = new Reference(in)
    val checker = new Checker(ref)
    val setupFailures = Seq(
      if (prints.size == 1) None else Some("inputs differ between builds from one seed"),
      checker.normalized(inst.edges.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))),
    ).flatten
    wl.queries.filter(_.win).foreach(q => println(s"reference k* ${q.label}: ${checker.refKStar(q.score, q.k)}"))
    println(f"checks_s=${Clock.wallSince(k0)}%.3f")

    // Warm-up pass for JIT and code generation: checked, and timed as part
    // of set-up rather than of the pass metrics.
    val warm = runPass(wl, inst, checker, None)
    val setupS = sessionS + median(builds.map(_._3)) + warm.passS
    println(f"setup session_s=$sessionS%.3f build_s=${builds.map(b => f"${b._3}%.3f").mkString(",")} " +
      f"warmup_s=${warm.passS}%.3f calibrate_s=$calibrateS%.3f")

    val passes = Seq.newBuilder[Pass]
    var traceMetrics = Seq.empty[(String, Double, String)]
    var probeFailures = Seq.empty[String]
    var spans = Map.empty[String, SpanStats]
    var heapMb = 0.0
    if (!a.trace) {
      val m0 = Clock.now()
      var last = 0.0
      var n = 0
      do {
        val p0 = Clock.now()
        passes += runPass(wl, inst, checker, tracer)
        last = Clock.wallSince(p0)
        n += 1
        if (n == 1) heapMb = retainedHeapMb()
      } while (n < MinPasses || Clock.wallSince(m0) + last <= a.seconds)
    } else {
      // The traced pass runs between two untraced ones, so the trend of a
      // still-warming JVM cancels out of the tracing overhead.
      val t = tracer.get
      val before = runPass(wl, inst, checker, None)
      t.reset()
      val traced = runPass(wl, inst, checker, tracer)
      val unattributed = t.unlabelledJobs()
      val passStats = t.stats()
      val after = runPass(wl, inst, checker, None)
      t.reset()
      probeFailures = runProbes(wl, in, inst, t, checker)
      spans = passStats ++ t.stats()
      if (unattributed > 0) probeFailures :+= s"$unattributed jobs of the traced pass ran outside any span"
      passes ++= Seq(before, traced, after)
      val r0 = Clock.now()
      for (_ <- 1 to 5; c <- 0 until in.r) ref.diffuse(c)
      traceMetrics = Seq(
        ("pass.jobs", passStats.values.map(_.jobs).sum.toDouble, "count"),
        ("pass.unattributed_jobs", unattributed.toDouble, "count"),
        ("trace_overhead_s", traced.passS - (before.passS + after.passS) / 2, "s"),
        ("reference.diffuse_ms", Clock.wallSince(r0) * 1e3 / 5, "ms"))
    }

    val ps = passes.result()
    val failures = setupFailures ++ probeFailures ++ (warm +: ps).flatMap(_.failures)
    val attempted = (warm +: ps).map(_.attempted).sum
    val failed = (warm +: ps).map(_.failures.size).sum
    def med(f: Pass => Double) = median(ps.map(f))
    val endToEnd = Seq(
      ("setup_s", setupS, "s"), ("pass_s", med(_.passS), "s"), ("select_s", med(_.selectS), "s"),
      ("eval_s", med(_.evalS), "s"), ("seed_quality", med(_.quality), "ratio"),
      ("retained_heap_mb", heapMb, "MB"))
    val perLayer = traceMetrics ++ (Workloads.passSpans ++ Workloads.probeSpans).flatMap { name =>
      spans.getOrElse(name, SpanStats.Zero).fields.map { case (stat, v, unit) => (s"$name.$stat", v, unit) }
    }
    val metrics = if (a.trace) perLayer else endToEnd

    (warm +: ps).zipWithIndex.foreach { case (p, i) =>
      println(f"${if (i == 0) "warm-up pass" else s"pass $i"}: pass_s=${p.passS}%.3f select_s=${p.selectS}%.3f eval_s=${p.evalS}%.3f " +
        f"seed_quality=${p.quality}%.4f wall_s=${p.wallS}%.3f steal_cpu_s=${p.stealS}%.2f " +
        f"failed=${p.failures.size}/${p.attempted}")
    }
    failures.foreach(f => println(s"FAILED $f"))
    println(f"${"metric"}%-44s ${"value"}%14s unit")
    (metrics ++ Seq(("ops", attempted.toDouble, "count"), ("ops_failed", failed.toDouble, "count")))
      .foreach { case (k, v, u) => println(f"$k%-44s $v%14.4f $u") }

    val correct = failures.isEmpty
    Record.write(a, config, in.fingerprint, ps, spans, metrics, correct)
    println(Record.result(correct, attempted, failed, metrics))
    0
  }
}
