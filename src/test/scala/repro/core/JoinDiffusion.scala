package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The DataFrame FJ kernels that [[OpinionDiffusion]] replaced, kept as a
  * test reference, with the DataFrame seed application they used: one FJ timestep is one join with the edge list plus a
  * groupBy, the DataFrame rendering of a sparse matrix–vector product.
  * Every step is checkpointed, because reusing `edges` across steps without
  * a checkpoint trips Spark's ambiguous-self-join detection.
  */
object JoinDiffusion {

  /** Profile `(node, cand, b0, d)` with seed set `seeds` applied for
    * candidate `q`: seeded rows get `b0 = 1, d = 1`.
    */
  def applySeeds(profile: DataFrame, q: Int, seeds: Seq[Long]): DataFrame = {
    if (seeds.isEmpty) profile
    else {
      val isSeed = col("cand") === q && col("node").isInCollection(seeds)
      profile.select(
        col("node"), col("cand"),
        when(isSeed, lit(1.0)).otherwise(col("b0")).as("b0"),
        when(isSeed, lit(1.0)).otherwise(col("d")).as("d"),
      )
    }
  }

  /** Exact opinions `(node, cand, b)` of every user about every candidate at
    * horizon `t`, given normalized edges and profile `(node, cand, b0, d)`.
    */
  def diffuse(edges: DataFrame, profile: DataFrame, t: Int): DataFrame = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    var b = profile.select(col("node"), col("cand"), col("b0").as("b"))
    for (_ <- 1 to t) {
      val wsum = b.join(edges, b("node") === edges("src"))
        .groupBy(edges("dst").as("node"), col("cand"))
        .agg(sum(col("b") * col("w")).as("wsum"))
      b = profile.join(wsum, Seq("node", "cand"))
        .select(col("node"), col("cand"),
          ((lit(1.0) - col("d")) * col("wsum") + col("d") * col("b0")).as("b"))
        .localCheckpoint(true)
    }
    b
  }

  /** Scenario-vectorized diffusion for greedy marginal-gain evaluation:
    * each scenario is "add candidate seed `scen` on top of the already
    * applied base profile". All scenarios advance together — one edge join
    * per timestep covers every scenario, instead of one diffusion per
    * candidate seed.
    *
    * @param targetProfile `(node, b0, d)` for the target candidate only,
    *                      with the current seed set already applied
    * @param scenarios     single-column `(scen)` of candidate seed nodes
    * @return `(scen, node, b)` target-candidate opinions at horizon `t`
    */
  def diffuseScenarios(edges: DataFrame, targetProfile: DataFrame,
                       scenarios: DataFrame, t: Int): DataFrame = {
    val prof = scenarios.crossJoin(targetProfile)
      .select(col("scen"), col("node"),
        when(col("node") === col("scen"), lit(1.0)).otherwise(col("b0")).as("b0"),
        when(col("node") === col("scen"), lit(1.0)).otherwise(col("d")).as("d"))
      .localCheckpoint(true)
    var b = prof.select(col("scen"), col("node"), col("b0").as("b"))
    for (_ <- 1 to t) {
      val wsum = b.join(edges, b("node") === edges("src"))
        .groupBy(col("scen"), edges("dst").as("node"))
        .agg(sum(col("b") * col("w")).as("wsum"))
      b = prof.join(wsum, Seq("scen", "node"))
        .select(col("scen"), col("node"),
          ((lit(1.0) - col("d")) * col("wsum") + col("d") * col("b0")).as("b"))
        .localCheckpoint(true)
    }
    b
  }
}
