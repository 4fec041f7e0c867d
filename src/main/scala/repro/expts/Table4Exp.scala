package repro.expts

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
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
    val domains = SynthSocial.domains(spark, n, 7, seed).localCheckpoint(true)
    val edges = GraphOps.normalize(spark, SynthSocial.rawEdges(spark, n, m, seed + 1), n)
      .localCheckpoint(true)
    val profile = SynthSocial.domainBiasedProfile(spark, n, domains, seed + 2)
      .localCheckpoint(true)
    val inst = Instance(edges, profile, n, 2, 0, t)

    val seeds = Methods.rw(inst, Plurality(2), k, seed = seed + 3,
      lambdaOverride = Some(lambda)).seeds
    // Users voting for the target: those ranking it strictly top (p = 1).
    val before = Sandwich.favorable(inst, 1, Nil).toSet
    val after = Sandwich.favorable(inst, 1, seeds).toSet
    val switched = after -- before
    val memberships = domains.select(col("node"), col("domain")).collect().map(r => (r.getLong(0), r.getInt(1)))
    val domainsOf = memberships.groupMap(_._1)(_._2)
    val members = memberships.groupMap(_._2)(_._1)

    // The domain each top-10 seed influences the most: switched users within
    // the seed's t-hop reach, counted by domain and normalized by domain size
    // so the largest domain does not absorb every seed. The users a seed
    // reaches are those reaching it over the reversed edges.
    val reversed = GraphOps.inCsr(edges.select(col("dst").as("src"), col("src").as("dst"), col("w")))
    val reach = GraphOps.reach(reversed, seeds.take(10), t)
    val seedDomain = (0 until reach.size).flatMap { i =>
      reach.nodesOf(i).toSeq.map(_.toLong).filter(switched).flatMap(domainsOf.getOrElse(_, Array.emptyIntArray))
        .groupMapReduce(identity)(_ => 1L)(_ + _)
        .maxByOption { case (d, c) => (c.toDouble / members(d).length, -d) }
        .map(reach.roots(i) -> _._1)
    }

    val rows = members.keys.toSeq.sorted.map { d =>
      DomainRow(d, (d % 3 - 1) * 0.25, members(d).length.toLong,
        members(d).count(before).toLong, members(d).count(after).toLong,
        seedDomain.collect { case (s, `d`) => s }.sorted)
    }

    val beforeTotal = before.size.toLong
    val afterTotal = after.size.toLong
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
