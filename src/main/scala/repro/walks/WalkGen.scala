package repro.walks

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, Instance}

/** t-step reverse random walks (Direct Generation, §V-A), each run to
  * completion by [[GraphOps.reverseWalk]].
  *
  * A walk currently at `v` terminates there with probability `d_qv`
  * (stubbornness of the *seedless* profile — Post-Generation Truncation,
  * Thm 9, re-weights for any later seed set), otherwise moves to an
  * in-neighbor `u` with probability `w_uv` (well-defined because `W_q` is
  * column-stochastic). The walk also ends after `t` steps. The full visited
  * path is retained so any seed set can truncate the walk afterwards: the
  * walk's estimate for seed set `S` is 1 if its path intersects `S`
  * (truncation ends on a seed, whose initial opinion is 1), otherwise the
  * target's initial opinion of the end node.
  *
  * Walk schema: `(wid, start, path: Array[Long], end)`; walk `wid` draws
  * from `GraphOps.draws(seed, wid)`.
  */
object WalkGen {

  /** Generate one walk per row of `starts` (`(wid, start)`), horizon `t`,
    * as a local DataFrame.
    *
    * Walks at a node whose only in-edge is the normalization self-loop are
    * ended immediately — such a node's opinion never changes (§II-A).
    */
  def generate(spark: SparkSession, edges: DataFrame, targetStubbornness: DataFrame,
               starts: DataFrame, t: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val csr = GraphOps.inCsr(edges)
    val d = new Array[Double](csr.off.length - 1)
    targetStubbornness.select(col("node").cast("int"), col("d").cast("double")).collect()
      .foreach(r => d(r.getInt(0)) = r.getDouble(1))
    val ws = walks(csr, d, starts.select(col("wid").cast("long"), col("start").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq, t, seed)
    (0 until ws.size).map { i =>
      val path = ws.nodesOf(i).map(_.toLong).toSeq
      (ws.roots(i), path.head, path, path.last)
    }.toDF("wid", "start", "path", "end")
  }

  /** The path of the walk of each start `(wid, start)`, start first, over
    * the in-edges `csr` with stubbornness `d(v)` at node `v` and horizon
    * `t`, on the driver; walk `wid` draws from `GraphOps.draws(seed, wid)`.
    */
  private[repro] def walks(csr: GraphOps.InCsr, d: Array[Double], starts: Seq[(Long, Long)], t: Int,
                           seed: Long): GraphOps.Packed =
    GraphOps.perRoot(starts)((wid, start) =>
      GraphOps.reverseWalk(csr, start, t, d(_), GraphOps.draws(seed, wid), simple = false))

  /** The RW starts `(wid, start)` of node `v` with `lam >= 1` walks: walk
    * `rep` of `v` has id `v · 2^32 + rep`.
    */
  def nodeStarts(v: Long, lam: Long): Seq[(Long, Long)] = {
    require(lam >= 1, s"walk count lam must be >= 1, got $lam for node $v")
    (1L to lam).map(rep => ((v << 32) + rep, v))
  }

  /** RW starts: the [[nodeStarts]] of each row `(node, lam)` of `lambdas`. */
  def startsPerNode(spark: SparkSession, lambdas: DataFrame): DataFrame = {
    import spark.implicits._
    lambdas.select(col("node").cast("long"), col("lam").cast("long")).as[(Long, Long)]
      .flatMap((nodeStarts _).tupled).toDF("wid", "start")
  }

  /** RW starts with a uniform walk count per node. */
  def uniformStarts(spark: SparkSession, n: Long, lambda: Int): DataFrame = {
    require(lambda >= 1, s"walk count lambda must be >= 1, got $lambda")
    startsPerNode(spark, spark.range(n).select(col("id").as("node"), lit(lambda).as("lam")))
  }

  /** The observation key and the `b0` of the end node of each walk of
    * `walks`: RS keys observations by walk id (λ=1 per sample), RW by start
    * node (λ_v walks averaged).
    */
  private[walks] def annotation(walks: GraphOps.Packed, b0: Array[Double],
                                obsIsWalk: Boolean): (Array[Long], Array[Double]) = {
    val (obs, b0end) = (new Array[Long](walks.size), new Array[Double](walks.size))
    java.util.Arrays.setAll(obs, (i: Int) => if (obsIsWalk) walks.roots(i) else walks.nodes(walks.off(i)).toLong)
    java.util.Arrays.setAll(b0end, (i: Int) => b0(walks.nodes(walks.off(i + 1) - 1)))
    (obs, b0end)
  }

  /** The walks of rows `(wid, path, …)`, in row order. */
  private[walks] def packed(rows: Array[Row]): GraphOps.Packed =
    GraphOps.Packed(rows.toSeq.map(r => (r.getLong(0), r.getSeq[Long](1).map(_.toInt))))

  /** Annotate generated walks with the target candidate's initial opinion of
    * each walk's end node, read from the instance's dense profile on the
    * driver, producing the greedy working set
    * `(wid, obs, start, path, b0end, covered=false)` as a local DataFrame.
    *
    * @param obsIsWalk RS keys observations by walk id (λ=1 per sample);
    *                  RW keys them by start node (λ_v walks averaged).
    */
  def annotate(walks: DataFrame, inst: Instance, obsIsWalk: Boolean): DataFrame = {
    import walks.sparkSession.implicits._
    val ws = packed(walks.select(col("wid").cast("long"), col("path")).collect())
    val (obs, b0end) = annotation(ws, inst.targetDense(Nil)._1, obsIsWalk)
    (0 until ws.size).map { i =>
      val path = ws.nodesOf(i).map(_.toLong).toSeq
      (ws.roots(i), obs(i), path.head, path, b0end(i), false)
    }.toDF("wid", "obs", "start", "path", "b0end", "covered")
  }
}
