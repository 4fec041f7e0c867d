package repro.expts

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{Copeland, Cumulative, Plurality}

/** Table I reproduction: scores of candidate c1 for the six seed sets of the
  * running example at t=1, paper values side by side.
  */
object Table1Exp {

  final case class Row(seedSet: Set[Int], opinions: Seq[Double],
                       cum: Double, plu: Double, cope: Double,
                       paperCum: Double, paperPlu: Double, paperCope: Double) {
    def matchesPaper: Boolean =
      math.abs(cum - paperCum) < 1e-9 && plu == paperPlu && cope == paperCope
  }

  def run(spark: SparkSession): (String, Seq[Row]) = {
    val inst = RunningExample.instance(spark)
    val rows = RunningExample.expectedScores.toSeq
      .sortBy { case (s, _) => (s.size, s.toSeq.sorted.mkString) }
      .map { case (paperSeeds, (pCum, pPlu, pCope)) =>
        val seeds = RunningExample.seedsOf(paperSeeds)
        val ops = inst.opinions(seeds)
        val opinionVec = ops.filter(col("cand") === 0).orderBy("node")
          .collect().map(_.getDouble(2)).toSeq
        Row(paperSeeds, opinionVec,
          Cumulative.exact(ops, 0), Plurality(2).exact(ops, 0), Copeland.exact(ops, 0),
          pCum, pPlu, pCope)
      }
    val text = Harness.render(
      "Table I - running-example scores at t=1 (measured vs paper)",
      Seq("Seed Set", "User1", "User2", "User3", "User4",
          "Cumu.", "paper", "Plu.", "paper", "Cope.", "paper", "match"),
      rows.map { r =>
        Seq(if (r.seedSet.isEmpty) "{}" else r.seedSet.toSeq.sorted.mkString("{", ",", "}")) ++
          r.opinions.map(o => f"$o%.2f") ++
          Seq(f"${r.cum}%.2f", f"${r.paperCum}%.2f",
              f"${r.plu}%.0f", f"${r.paperPlu}%.0f",
              f"${r.cope}%.0f", f"${r.paperCope}%.0f",
              if (r.matchesPaper) "YES" else "NO")
      })
    (text, rows)
  }
}
