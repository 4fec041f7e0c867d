package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

/** JSON output: the one-line result and the per-run record file holding the
  * configuration, input fingerprint, every pass and every span.
  */
object Record {

  /** Where run records go, relative to the root of the checkout. */
  val Dir: Path = Paths.get("perfbench/target/runs")

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString

  private def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  private def metricsJson(metrics: Seq[(String, Double, String)]): String =
    obj(metrics.map { case (k, v, u) => k -> obj(Seq("value" -> num(v), "unit" -> str(u))) })

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    obj(Seq("correct" -> correct.toString, "attempted" -> attempted.toString,
      "failed" -> failed.toString, "metrics" -> metricsJson(metrics)))

  def write(a: Main.Args, config: Seq[(String, String)], fingerprint: String, passes: Seq[Main.Pass],
            spans: Map[String, SpanStats], metrics: Seq[(String, Double, String)], correct: Boolean): Unit = {
    val json = obj(Seq(
      "workload" -> str(a.workload.name),
      "why" -> str(a.workload.why),
      "seed" -> a.seed.toString,
      "trace" -> (if (a.trace) "1" else "0"),
      "config" -> obj(config.map { case (k, v) => k -> str(v) }),
      "fingerprint" -> str(fingerprint),
      "correct" -> correct.toString,
      "passes" -> passes.map(p => obj(Seq("pass_s" -> num(p.passS), "select_s" -> num(p.selectS),
        "eval_s" -> num(p.evalS), "seed_quality" -> num(p.quality),
        "wall_s" -> num(p.wallS), "steal_cpu_s" -> num(p.stealS),
        "attempted" -> p.attempted.toString, "failures" -> p.failures.map(str).mkString("[", ", ", "]"))))
        .mkString("[", ", ", "]"),
      "spans" -> obj(spans.toSeq.sortBy(_._1).map { case (name, s) =>
        name -> obj(s.fields.map { case (k, v, _) => k -> num(v) })
      }),
      "metrics" -> metricsJson(metrics),
    ))
    Files.createDirectories(Dir)
    val file = Dir.resolve(s"${a.workload.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    Files.write(file, (json + "\n").getBytes(StandardCharsets.UTF_8))
  }
}
