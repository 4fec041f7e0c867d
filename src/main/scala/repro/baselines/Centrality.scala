package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, Instance}

/** Structural seed-selection baselines of §VIII-A: Degree Centrality (DC),
  * PageRank (PR) and Random Walk with Restart (RWR, personalized PageRank
  * restarted at the target's initial-opinion distribution, following [25]).
  *
  * All are power iterations over the *out*-normalized edge list (a forward
  * random surfer), independent of the opinion model: the paper uses them as
  * "structurally important nodes" baselines evaluated under FJ afterwards.
  */
object Centrality {

  private def requireK(inst: Instance, k: Int): Unit =
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")

  /** Top-k nodes by weighted out-degree. */
  def degree(inst: Instance, k: Int): Seq[Long] = {
    requireK(inst, k)
    GraphOps.weightedOutDegree(inst.edges.sparkSession, inst.edges, inst.n)
      .orderBy(col("outdeg").desc, col("node"))
      .limit(k).collect().map(_.getLong(0)).toSeq
  }

  /** Out-normalized transition edges `(src, dst, p)`; dangling nodes keep
    * no out-probability (their mass is redistributed uniformly below).
    */
  private def outNormalized(spark: SparkSession, edges: DataFrame): DataFrame = {
    val real = edges.filter(col("src") =!= col("dst"))
    val outSum = real.groupBy("src").agg(sum("w").as("osum"))
    real.join(outSum, "src")
      .select(col("src"), col("dst"), (col("w") / col("osum")).as("p"))
  }

  private def powerIterate(spark: SparkSession, trans: DataFrame, restart: DataFrame,
                           n: Long, c: Double, iters: Int): DataFrame = {
    var pr = restart
    for (_ <- 1 to iters) {
      val inflow = pr.join(trans, pr("node") === trans("src"))
        .groupBy(trans("dst").as("node")).agg(sum(col("pr") * col("p")).as("inflow"))
      val massRow = pr.join(trans.select("src").distinct(),
        pr("node") === col("src"), "left_anti").agg(sum("pr")).head
      val mass = if (massRow.isNullAt(0)) 0.0 else massRow.getDouble(0)
      pr = restart.select(col("node"), col("pr").as("rst"))
        .join(inflow, Seq("node"), "left")
        .select(col("node"),
          ((lit(1.0) - c) * col("rst")
            + lit(c) * (coalesce(col("inflow"), lit(0.0)) + lit(mass / n))).as("pr"))
        .localCheckpoint(true)
    }
    pr
  }

  /** Top-k nodes by PageRank (uniform restart). */
  def pageRank(inst: Instance, k: Int, c: Double = 0.85, iters: Int = 20): Seq[Long] = {
    requireK(inst, k)
    val spark = inst.edges.sparkSession
    val trans = outNormalized(spark, inst.edges).localCheckpoint(true)
    val restart = spark.range(inst.n)
      .select(col("id").as("node"), lit(1.0 / inst.n).as("pr"))
    powerIterate(spark, trans, restart, inst.n, c, iters)
      .orderBy(col("pr").desc, col("node")).limit(k)
      .collect().map(_.getLong(0)).toSeq
  }

  /** Top-k nodes by RWR: restart distribution proportional to the target
    * candidate's initial opinions (mass lands where the campaign already
    * resonates, as in [25]'s RWR baseline).
    */
  def rwr(inst: Instance, k: Int, c: Double = 0.85, iters: Int = 20): Seq[Long] = {
    requireK(inst, k)
    val spark = inst.edges.sparkSession
    val trans = outNormalized(spark, inst.edges).localCheckpoint(true)
    val b0 = inst.profile.filter(col("cand") === inst.q).select(col("node"), col("b0"))
    val tot = math.max(b0.agg(sum("b0")).head.getDouble(0), 1e-12)
    val restart = b0.select(col("node"), (col("b0") / tot).as("pr"))
    powerIterate(spark, trans, restart, inst.n, c, iters)
      .orderBy(col("pr").desc, col("node")).limit(k)
      .collect().map(_.getLong(0)).toSeq
  }
}
