package repro.expts

import repro.core._
import repro.walks.Methods
import repro.baselines.{Centrality, GedT, RRSets}

/** Shared evaluation harness for the table benches: run each seed-selection
  * method, then evaluate the returned seeds *exactly* under the FJ model and
  * the requested voting scores (the paper evaluates all methods in the same
  * multi-campaign setting once seeds are chosen, §VIII-A).
  */
object Harness {

  final case class MethodRun(method: String, seeds: Seq[Long], millis: Long)

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** The paper's method roster. Walk budgets are scaled-down knobs
    * (documented per bench); each method only *selects* seeds here.
    */
  def runMethods(inst: Instance, score: VoteScore, k: Int,
                 methods: Seq[String],
                 rwLambda: Int = 20, rsTheta: Long = 20000L,
                 rrTheta: Long = 20000L, seed: Long = 42): Seq[MethodRun] =
    methods.map { m =>
      val (seeds, ms) = timed {
        m match {
          case "DM"    => GreedyDM.select(inst, score, k, celf = score == Cumulative).seeds
          case "RW"    => Methods.rw(inst, score, k, seed = seed, lambdaOverride = Some(rwLambda)).seeds
          case "RS"    => Methods.rs(inst, score, k, seed = seed, thetaOverride = Some(rsTheta)).seeds
          case "IC"    => RRSets.select(inst, "ic", k, rrTheta, seed)
          case "LT"    => RRSets.select(inst, "lt", k, rrTheta, seed)
          case "GED-T" => GedT.select(inst, k)
          case "PR"    => Centrality.pageRank(inst, k)
          case "RWR"   => Centrality.rwr(inst, k)
          case "DC"    => Centrality.degree(inst, k)
          case other   => throw new IllegalArgumentException(s"unknown method: $other")
        }
      }
      MethodRun(m, seeds, ms)
    }

  /** Exact score of the target with each method's seeds, diffused together. */
  def evaluate(inst: Instance, runs: Seq[MethodRun], score: VoteScore): Seq[(String, Double, Long)] =
    runs.zip(inst.targetScores(score, runs.map(_.seeds))).map { case (r, f) => (r.method, f, r.millis) }

  /** Fixed-width table renderer used by benches and jobs. */
  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n") + "\n"
  }
}
