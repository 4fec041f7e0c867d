package repro.perfbench

import repro.baselines.RRSets
import repro.core._
import repro.walks.Methods

/** Seeds returned by a selection call, plus the exact-greedy picks in it
  * (score and ordered seeds) that the reference re-checks round by round.
  */
final case class Picked(seeds: Seq[Long], greedyPicks: Option[(VoteScore, Seq[Long])] = None)

/** One query of a pass: a seed-selection call for `k` seeds, then either an
  * exact evaluation of the seeds or, for a win query, a search for the
  * smallest winning prefix of the returned sequence (`k` is then kMax).
  */
final case class Query(label: String, span: String, score: VoteScore, k: Int,
                       select: Instance => Picked, win: Boolean = false)

/** A workload: generated instance shape, the queries of one pass, the
  * selection calls and layers the traced run probes once each, and why it
  * exists.
  */
final case class Workload(name: String, why: String, shape: Shape, queries: Seq[Query],
                          probeQueries: Seq[Query], probes: Seq[String])

object Workloads {

  // Every Spark job costs 50-100 ms on a 4-core machine whatever the input
  // size, so a pass is sized by its job count: about 10 s warm, which lets
  // a run make a warm-up pass and two timed passes in under a minute.

  val exactGreedy: Workload = Workload(
    "exact_greedy",
    "Scenario-vectorized exact diffusion (n scenarios x n nodes per step) is the heaviest " +
      "data path; the sandwich runs DM greedy (CELF and plain) on it and no walks run here.",
    Shape(n = 120, m = 720, r = 4, t = 2),
    Seq(
      Query("sandwich_plurality", "Sandwich.run", Plurality(4), 1, inst => {
        val res = Sandwich.run(inst, Plurality(4), 1)
        Picked(res.seeds, Some(Plurality(4) -> res.sF))
      })),
    Seq(
      Query("dm_cumulative_celf", "GreedyDM.select", Cumulative, 2, inst => {
        val res = GreedyDM.select(inst, Cumulative, 2, celf = true)
        Picked(res.seeds, Some(Cumulative -> res.seeds))
      })),
    Seq("GraphOps.normalize", "GraphOps.reachWithin", "OpinionDiffusion.diffuse",
      "OpinionDiffusion.diffuseScenarios", "VoteScore.exact", "VoteScore.byScenario"))

  private val rrQueries = Seq(
    Query("rr_ic", "RRSets.select", Cumulative, 2,
      inst => Picked(RRSets.select(inst, "ic", 2, 2000L, seed = 37))),
    Query("rr_lt", "RRSets.select", Cumulative, 2,
      inst => Picked(RRSets.select(inst, "lt", 2, 2000L, seed = 41))))

  val walkSelect: Workload = Workload(
    "walk_select",
    "A sparse graph larger still where DM is impractical: walk generation, annotation " +
      "and walk greedy dominate; exact diffusion runs only for competitors and evals.",
    Shape(n = 1200, m = 2400, r = 4, t = 3),
    Seq(
      Query("rw_cumulative", "Methods.rw", Cumulative, 2,
        inst => Picked(Methods.rw(inst, Cumulative, 2, seed = 11, lambdaOverride = Some(8)).seeds)),
      Query("rs_copeland", "Methods.rs", Copeland, 1,
        inst => Picked(Methods.rs(inst, Copeland, 1, seed = 17, thetaOverride = Some(12000L)).seeds))) ++
      rrQueries,
    Nil,
    Seq("GraphOps.normalize", "OpinionDiffusion.diffuse", "VoteScore.exact",
      "WalkGen.generate", "WalkGen.annotate", "WalkGreedy.select"))

  /** Win queries search prefixes of `WinKMax` seeds; the competitor head
    * start is calibrated per seed (see [[shapeFor]]).
    */
  val WinKMax = 2

  val winSearch: Workload = Workload(
    "win_search",
    "Problem 2 on a Table VI instance: many small r-candidate diffusions (Instance.wins) " +
      "instead of one scenario block, and kMax walk-greedy rounds of RS; RW and the IC/LT " +
      "RR-set baselines are probed on the same instance.",
    Shape(n = 150, m = 900, r = 2, t = 2),
    Seq(
      Query("rs_plurality_win", "Methods.rs", Plurality(2), WinKMax,
        inst => Picked(Methods.rs(inst, Plurality(2), WinKMax, seed = 29, thetaOverride = Some(20000L)).seeds),
        win = true)),
    Query("rw_cumulative", "Methods.rw", Cumulative, WinKMax,
      inst => Picked(Methods.rw(inst, Cumulative, WinKMax, seed = 31, lambdaOverride = Some(300)).seeds)) +:
      rrQueries,
    Seq("GraphOps.normalize", "OpinionDiffusion.diffuse", "VoteScore.exact", "Instance.wins",
      "WalkGen.generate", "WalkGen.annotate", "WalkGreedy.select"))

  /** The instance shape for `seed`. For win queries the competitors get the
    * head start closest to 0, in steps of 0.01 from -0.3 to 0.3 (negative is
    * a handicap), under which the reference greedy needs exactly kMax/2
    * seeds to win for every win query's score. Without win queries the shape
    * is fixed.
    */
  def shapeFor(wl: Workload, seed: Long): Shape = {
    val wins = wl.queries.filter(_.win)
    if (wins.isEmpty) return wl.shape
    val kStars = (0 to 60).to(LazyList).map(i => if (i % 2 == 0) i / 2 else -(i + 1) / 2).map { i =>
      val shape = wl.shape.copy(headStart = i / 100.0)
      val checker = new Checker(new Reference(Inputs.generate(shape, seed)))
      shape -> wins.map(q => checker.refKStar(q.score, q.k).getOrElse(Int.MaxValue))
    }
    kStars.collectFirst { case (s, ks) if ks.forall(_ == WinKMax / 2) => s }
      .getOrElse(throw new IllegalStateException(s"no head start gives k* = ${WinKMax / 2} for seed $seed: " +
        kStars.map { case (s, ks) => s"${s.headStart}->${ks.mkString("/")}" }.mkString(" ")))
  }

  /** `walk_select` runs on request; the benchmark's workload list holds the
    * other two, which between them measure every layer it measures (the
    * RR-set baselines as probes on `win_search`).
    */
  val all: Seq[Workload] = Seq(exactGreedy, walkSelect, winSearch)

  /** Top-level calls wrapped by pass spans. */
  val passSpans: Seq[String] = Seq("GreedyDM.select", "Sandwich.run", "Methods.rw", "Methods.rs",
    "RRSets.select", "WinSearch.minSeedsToWin", "Instance.targetScore")

  /** Layers called once each by the traced run's probes. */
  val probeSpans: Seq[String] = Seq("GraphOps.normalize", "GraphOps.reachWithin",
    "OpinionDiffusion.diffuse", "OpinionDiffusion.diffuseScenarios", "VoteScore.exact",
    "VoteScore.byScenario", "Instance.wins", "WalkGen.generate", "WalkGen.annotate",
    "WalkGreedy.select")
}
