package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.expts.{Datasets, RunningExample}

/** The primitive score kernel ([[VoteScore.addTerms]] into part totals,
  * [[VoteScore.finish]] over them) against the boxed one it replaced
  * ([[BoxedScores]]): per-voter terms, totals and every exact score built
  * on them must be `==`, not merely close.
  */
class ScoreReferenceSpec extends SparkSpec {

  /** The six scores of an `r`-candidate election, the restricted cumulative
    * one over every third node of `0 until n`.
    */
  private def scores(r: Int, n: Long): Seq[VoteScore] = Seq(
    Cumulative, Plurality(r), PApproval(2, r), PositionalPApproval(2, Seq(1.0, 0.5)), Copeland,
    RestrictedCumulative((0L until n by 3).toSet, 0.5))

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(17L), p)
    assert(res.passed, res.status.toString)
  }

  private val nodes = 12L

  /** An opinion, 0 and 1 forced in often. */
  private val genOpinion: Gen[Double] = Gen.frequency(2 -> Gen.const(0.0), 2 -> Gen.const(1.0), 6 -> Gen.choose(0.0, 1.0))

  /** A voter `(node, b, comp)` with `r - 1` competitor opinions, each tied with `b` often. */
  private def genVoter(r: Int): Gen[(Long, Double, Array[Double])] = for {
    node <- Gen.choose(0L, nodes - 1)
    b <- genOpinion
    comp <- Gen.listOfN(r - 1, Gen.frequency(1 -> Gen.const(b), 2 -> genOpinion))
  } yield (node, b, comp.toArray)

  test("addTerms of one voter is == its boxed terms, summed into a TreeMap or added at an offset") {
    val gen = for {
      r <- Gen.choose(2, 5)
      voter <- genVoter(r)
      at <- Gen.choose(0, 2)
      pre <- Gen.listOfN(at + r + 2, Gen.oneOf(Gen.const(0.0), Gen.choose(-3.0, 3.0)))
    } yield (r, voter, at, pre.toArray)
    check(Prop.forAll(gen) { case (r, (node, b, comp), at, pre) =>
      scores(r, nodes).forall { score =>
        val c = if (score.ranked) comp else Array.emptyDoubleArray
        val terms = BoxedScores.voterTerms(score, node, b, c)
        val summed = BoxedScores.partTotals(score, Array(node), Array(b), Array(comp))
        val zeros = new Array[Double](score.parts(r))
        score.addTerms(zeros, 0, node, b, c)
        val added = pre.clone()
        score.addTerms(added, at, node, b, c)
        val want = pre.clone()
        terms.foreach { case (part, v) => want(at + part) += v }
        zeros.toSeq == zeros.indices.map(summed.getOrElse(_, 0.0)) && summed.keySet.forall(zeros.indices.contains) &&
          added.toSeq == want.toSeq
      }
    })
  }

  test("total and finish of random voter sets, the empty one included, are == the TreeMap total") {
    val gen = for {
      r <- Gen.choose(2, 5)
      size <- Gen.frequency(1 -> Gen.const(0), 5 -> Gen.choose(1, 20))
      voters <- Gen.listOfN(size, genVoter(r))
    } yield (r, voters.toArray)
    check(Prop.forAll(gen) { case (r, voters) =>
      scores(r, nodes).forall { score =>
        score.total(voters.length, r)(voters(_)._1, voters(_)._2, voters(_)._3) ==
          BoxedScores.total(score, voters.map(_._1), voters.map(_._2), voters.map(_._3))
      }
    })
  }

  /** The running example and instances of the two benchmark shapes
    * (n = 120, r = 4 and n = 150, r = 2, both t = 2).
    */
  private lazy val instances: Seq[(String, Instance)] = Seq(
    "running example" -> RunningExample.instance(spark),
    "exact_greedy shape" -> Datasets.instance(spark, Datasets.Spec("ref-eg", "ref", 120, 720, 4, 0, 0, 437), t = 2),
    "win_search shape" -> Datasets.instance(spark, Datasets.Spec("ref-ws", "ref", 150, 900, 2, 0, 0, 439), t = 2))

  /** The boxed score of the target opinions `b` against `inst`'s competitors. */
  private def boxedScore(inst: Instance, score: VoteScore, b: Array[Double]): Double =
    BoxedScores.total(score, b.indices.map(_.toLong).toArray, b, inst.competitors)

  test("targetScores over the n + 1 seed sets of a DM round is == the boxed scores") {
    for ((name, inst) <- instances; score <- scores(inst.r, inst.n)) {
      val seeds = Seq(1L, inst.n - 1)
      val sets = (0L until inst.n).map(seeds :+ _) :+ seeds
      val want = sets.map(s => boxedScore(inst, score, inst.targetOpinions(s)))
      assert(inst.targetScores(score, sets) == want, s"$name, ${score.name}")
      assert(sets.take(3).map(inst.targetScore(score, _)) == want.take(3), s"$name, ${score.name}")
    }
  }

  test("wins and winsEach over kMax prefixes are == the boxed per-candidate scores") {
    for ((name, inst) <- instances) {
      val kMax = math.min(6, inst.n.toInt)
      val prefixes = (1 to kMax).map(GreedyDM.select(inst, Cumulative, kMax).seeds.take)
      // Each prefix's node-major opinions of all candidates, entry v * r + c.
      val tables = prefixes.map(seeds => inst.opinions(seeds).collect()
        .map(row => (row.getLong(0), row.getInt(1), row.getDouble(2))).sortBy(o => (o._1, o._2)).map(_._3))
      for (score <- scores(inst.r, inst.n)) {
        val want = tables.map { ops =>
          val byCand = (0 until inst.r).map { c =>
            val others = (0 until inst.r).filter(_ != c)
            val b = Array.tabulate(inst.n.toInt)(v => ops(v * inst.r + c))
            val got = score.ofTable(ops, inst.r, c)
            assert(got == BoxedScores.total(score, b.indices.map(_.toLong).toArray, b,
              Array.tabulate(inst.n.toInt)(v => others.map(x => ops(v * inst.r + x)).toArray)), s"$name, ${score.name}")
            got
          }
          (0 until inst.r).filter(_ != inst.q).forall(c => byCand(inst.q) > byCand(c))
        }
        assert(prefixes.map(inst.wins(score, _)) == want, s"$name, ${score.name}")
        assert(inst.winsEach(score, prefixes) == want, s"$name, ${score.name}")
      }
    }
  }

  test("Sandwich.favorable sets and Sandwich.run / runCopeland scores are == the boxed ones") {
    for ((name, inst) <- instances) {
      for (p <- 1 until inst.r; seeds <- Seq(Nil, Seq(0L, 2L))) {
        val b = inst.targetOpinions(seeds)
        val want = b.indices.filter(v => BoxedScores.voterTerms(PApproval(p, inst.r), v, b(v), inst.competitors(v))
          .exists(_._2 > 0)).map(_.toLong)
        assert(Sandwich.favorable(inst, p, seeds) == want, s"$name, p=$p, seeds $seeds")
      }
      val k = math.min(3, inst.n.toInt)
      for ((score, res) <- Seq(Plurality(inst.r) -> Sandwich.run(inst, Plurality(inst.r), k),
                               PApproval(inst.r - 1, inst.r) -> Sandwich.run(inst, PApproval(inst.r - 1, inst.r), k),
                               Copeland -> Sandwich.runCopeland(inst, k))) {
        val options = Seq("S_U" -> res.sU) ++ res.sL.map("S_L" -> _) :+ ("S_F" -> res.sF)
        val boxed = options.map { case (nm, s) => (nm, s, boxedScore(inst, score, inst.targetOpinions(s))) }
        assert((res.pickedFrom, res.seeds, res.fValue) == boxed.maxBy(_._3), s"$name, ${score.name}")
      }
    }
  }
}
