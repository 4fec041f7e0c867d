package repro.expts

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthSocial
import repro.core.{GraphOps, Instance, Plurality, Sandwich}
import repro.walks.Methods

/** Table IV/V reproduction (scaled): the ACM-election case study on a
  * synthetic DBLP stand-in with 7 topic domains.
  *
  * The paper seeds k=100 users on 63,910 nodes (t=20) and reports, per
  * domain, how many users vote for the target candidate before and after
  * seeding (13,990 = 21.8% → 46,433 = 72.7% overall), plus which domains the
  * top-10 seeds influence most. We run the same pipeline at 1/40 scale:
  * a domain-biased synthetic graph, plurality-score RW seed selection, and
  * per-domain vote accounting. The *mechanism* asserted in EXPERIMENTS.md:
  * seeding flips a large majority of users, and flipped users concentrate
  * in domains that start pro-competitor.
  */
object Table4Exp {

  final case class DomainRow(domain: Int, bias: Double, total: Long,
                             beforeVotes: Long, afterVotes: Long,
                             topSeedsHere: Seq[Long])
  final case class Out(text: String, n: Long, k: Int,
                       beforeTotal: Long, afterTotal: Long,
                       rows: Seq[DomainRow], topSeeds: Seq[Long])

  def run(spark: SparkSession, n: Long = 1200, m: Long = 9600,
          k: Int = 25, t: Int = 10, lambda: Int = 20, seed: Long = 601): Out = {
    import spark.implicits._
    val domains = SynthSocial.domains(spark, n, 7, seed).localCheckpoint(true)
    val edges = GraphOps.normalize(spark, SynthSocial.rawEdges(spark, n, m, seed + 1), n)
      .localCheckpoint(true)
    val profile = SynthSocial.domainBiasedProfile(spark, n, domains, seed + 2)
      .localCheckpoint(true)
    val inst = Instance(edges, profile, n, 2, 0, t)

    val seeds = Methods.rw(inst, Plurality(2), k, seed = seed + 3,
      lambdaOverride = Some(lambda)).seeds
    // Users voting for the target: those ranking it strictly top (p = 1).
    val before = Sandwich.favorableUsers(inst, 1)
    val after = Sandwich.favorableUsers(inst, 1, seeds)

    // Switched users and the domain each top-10 seed influences the most:
    // switched users within the seed's t-hop reach, grouped by domain. The
    // users a seed reaches are those reaching it over the reversed edges.
    val switched = after.join(before, Seq("node"), "left_anti").localCheckpoint(true)
    val top10 = seeds.take(10)
    val reversed = GraphOps.inCsr(edges.select(col("dst").as("src"), col("src").as("dst"), col("w")))
    val reach = GraphOps.reach(reversed, top10, t).pairs.toDF("node", "root")
    val domTotals = domains.groupBy("domain").agg(count(lit(1)).as("tot"))
      .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val seedDomain = reach.join(switched, Seq("node"))
      .join(domains, Seq("node"))
      .groupBy("root", "domain").agg(count(lit(1)).as("c"))
      .collect().groupBy(_.getLong(0))
      .map { case (root, rows) =>
        // Most-influenced domain, normalized by domain size so the largest
        // domain does not absorb every seed.
        root -> rows.maxBy { r =>
          (r.getLong(2).toDouble / domTotals(r.getInt(1)), -r.getInt(1))
        }.getInt(1)
      }

    val domBias = domains.withColumn("bias", (col("domain") % 3 - 1) * lit(0.25))
      .groupBy("domain").agg(first("bias").as("bias"), count(lit(1)).as("total"))
    val perDomain = domBias
      .join(domains.join(before, Seq("node")).groupBy("domain")
        .agg(count(lit(1)).as("beforeV")), Seq("domain"), "left")
      .join(domains.join(after, Seq("node")).groupBy("domain")
        .agg(count(lit(1)).as("afterV")), Seq("domain"), "left")
      .orderBy("domain").collect()

    val rows = perDomain.map { r =>
      val d = r.getInt(0)
      DomainRow(d, r.getDouble(1), r.getLong(2),
        if (r.isNullAt(3)) 0L else r.getLong(3),
        if (r.isNullAt(4)) 0L else r.getLong(4),
        seedDomain.collect { case (s, dom) if dom == d => s }.toSeq.sorted)
    }.toSeq

    val beforeTotal = before.count()
    val afterTotal = after.count()
    val header = Harness.render(
      s"Table IV - case study (synthetic stand-in, n=$n, k=$k, t=$t); " +
        f"overall voters: $beforeTotal (${100.0 * beforeTotal / n}%.1f%%) -> " +
        f"$afterTotal (${100.0 * afterTotal / n}%.1f%%); paper: 13990 (21.8%%) -> 46433 (72.7%%)",
      Seq("Domain", "bias", "Total #users", "Votes w/o seeds", "Votes w/ seeds", "top-10 seeds influencing here"),
      rows.map(r => Seq(s"D${r.domain}", f"${r.bias}%+.2f", r.total.toString,
        f"${r.beforeVotes} (${100.0 * r.beforeVotes / math.max(1, r.total)}%.1f%%)",
        f"${r.afterVotes} (${100.0 * r.afterVotes / math.max(1, r.total)}%.1f%%)",
        r.topSeedsHere.mkString("{", ",", "}"))))
    val tableV = Harness.render(
      "Table V analog - synthetic domain composition (stands in for the paper's topic keyword lists)",
      Seq("Domain", "initial-opinion bias toward target", "#users"),
      rows.map(r => Seq(s"D${r.domain}", f"${r.bias}%+.2f", r.total.toString)))
    Out(header + tableV, n, k, beforeTotal, afterTotal, rows, seeds.take(10))
  }
}
