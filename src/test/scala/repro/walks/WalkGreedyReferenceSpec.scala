package repro.walks

import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.core._
import repro.expts.{Datasets, RunningExample}

/** The array-based walk greedy against the boxed one it replaced
  * ([[BoxedWalkGreedy]]), on identical walks: seeds and estimate
  * trajectories must be `==`, not merely close.
  */
class WalkGreedyReferenceSpec extends SparkSpec {

  /** The running example, a `Datasets` instance, and instances of the two
    * benchmark shapes (n = 120, r = 4 and n = 150, r = 2, both t = 2).
    */
  private lazy val instances: Seq[(String, Instance)] = Seq(
    "running example" -> RunningExample.instance(spark),
    "datasets" -> Datasets.instance(spark, Datasets.Spec("ref-wg", "ref", 40, 200, 3, 0, 0, 433), t = 4),
    "exact_greedy shape" -> Datasets.instance(spark, Datasets.Spec("ref-eg", "ref", 120, 720, 4, 0, 0, 437), t = 2),
    "win_search shape" -> Datasets.instance(spark, Datasets.Spec("ref-ws", "ref", 150, 900, 2, 0, 0, 439), t = 2))

  /** The six scores, the restricted cumulative one over every third node. */
  private def scores(inst: Instance): Seq[VoteScore] = Seq(
    Cumulative, Plurality(inst.r), PApproval(2, inst.r), PositionalPApproval(2, Seq(1.0, 0.5)), Copeland,
    RestrictedCumulative((0L until inst.n by 3).toSet, 0.5))

  /** Starts `(wid, start)` of RW with `lam` walks per node, `(node, lam)`. */
  private def rwStarts(lams: Seq[(Long, Long)]): Seq[(Long, Long)] = lams.flatMap((WalkGen.nodeStarts _).tupled)

  /** RW with uniform and per-node λ and RS walks of `inst`: each set's name,
    * starts, whether an observation is a walk, and its scale.
    */
  private def walkSets(inst: Instance): Seq[(String, Seq[(Long, Long)], Boolean, Double)] = {
    val perNode = Bounds.lambdaPerNode(inst, 0.9, lambdaCap = 6).collect().map(r => (r.getLong(0), r.getLong(1)))
    val theta = 2000L
    Seq(("RW uniform", rwStarts((0L until inst.n).map(_ -> 8L)), false, 1.0),
      ("RW per-node", rwStarts(perNode.toSeq), false, 1.0),
      ("RS", GraphOps.uniformNodes(inst.n, theta, 41), true, inst.n.toDouble / theta))
  }

  test("select is == the boxed greedy: RW (uniform and per-node λ) and RS, six scores, k = 1, 3, 10") {
    for ((name, inst) <- instances; (set, starts, obsIsWalk, scale) <- walkSets(inst)) {
      val (b0, d) = inst.targetDense(Nil)
      val packed = WalkGen.walks(inst.csr, d, starts, inst.t, 43)
      val rows = TupleTraversal.walks(inst.csr, d, spark.sparkContext.parallelize(starts), inst.t, 43)
        .map(BoxedWalkGreedy.annotated(_, b0, obsIsWalk)).toSeq
      for (score <- scores(inst); k <- Seq(1, 3, 10) if k <= inst.n) {
        val got = WalkGreedy.select(inst, score, k, packed, b0, obsIsWalk, scale)
        val ref = BoxedWalkGreedy.select(inst, score, k, rows, scale)
        assert((got.seeds, got.estScores) == (ref.seeds, ref.estScores), s"$name, $set, ${score.name}, k=$k")
      }
    }
  }

  test("the DataFrame select and scoreEstimate are == the boxed greedy's") {
    val inst = instances(1)._2
    for (obsIsWalk <- Seq(false, true)) {
      val starts =
        if (obsIsWalk) WalkGen.sketchStarts(spark, inst.n, 600, 45) else WalkGen.uniformStarts(spark, inst.n, 5)
      val state = WalkGen.annotate(WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst), starts,
        inst.t, 47), inst, obsIsWalk).localCheckpoint(true)
      val scale = if (obsIsWalk) inst.n / 600.0 else 1.0
      for (score <- scores(inst)) {
        val got = WalkGreedy.select(inst, score, 4, state, scale)
        val ref = BoxedWalkGreedy.select(inst, score, 4, state, scale)
        assert((got.seeds, got.estScores) == (ref.seeds, ref.estScores), s"obsIsWalk=$obsIsWalk, ${score.name}")
        val covered = WalkGreedy.applyCover(state, got.seeds.take(2))
        assert(WalkGreedy.scoreEstimate(covered, score, inst.competitorOpinions(), scale) ==
          BoxedWalkGreedy.scoreEstimate(covered, score, inst.competitorOpinions(), scale), score.name)
      }
    }
  }

  test("Methods.rs and Methods.rw are == the boxed greedy over the tuple-form walks of their starts") {
    for ((name, inst) <- instances.drop(2)) {
      val (b0, d) = inst.targetDense(Nil)
      def boxed(score: VoteScore, k: Int, starts: RDD[(Long, Long)], seed: Long, obsIsWalk: Boolean, scale: Double) =
        BoxedWalkGreedy.select(inst, score, k, TupleTraversal.walks(inst.csr, d, starts, inst.t, seed)
          .map(BoxedWalkGreedy.annotated(_, b0, obsIsWalk)).toSeq, scale)
      val rs = Methods.rs(inst, Plurality(inst.r), 4, seed = 29, thetaOverride = Some(20000L))
      val rsRef = boxed(Plurality(inst.r), 4, SparkTraversal.uniformNodes(spark.sparkContext, inst.n, 20000L, 29), 30,
        obsIsWalk = true, inst.n / 20000.0)
      assert((rs.seeds, rs.estScores) == (rsRef.seeds, rsRef.estScores), s"$name: RS")
      val rw = Methods.rw(inst, Cumulative, 4, seed = 31, lambdaOverride = Some(30))
      val rwRef = boxed(Cumulative, 4, spark.sparkContext.parallelize(rwStarts((0L until inst.n).map(_ -> 30L))), 31,
        obsIsWalk = false, 1.0)
      assert((rw.seeds, rw.estScores) == (rwRef.seeds, rwRef.estScores), s"$name: RW")
    }
  }
}
