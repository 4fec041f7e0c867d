package repro.core

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions._
import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering

/** Graph substrate for the paper's opinion-diffusion algorithms.
  *
  * A social graph is an edge DataFrame `(src: Long, dst: Long, w: Double)`
  * over node ids `0 until n`. The influence matrix `W` of the paper is
  * column-stochastic: for every node `v`, the weights of its *incoming*
  * edges sum to 1 (`sum_u w(u,v) = 1`). Nodes with no in-neighbors retain
  * their initial opinions (§II-A); we realize that uniformly by giving such
  * nodes a self-loop of weight 1 during normalization, so the FJ update is
  * the same formula for every node.
  */
object GraphOps {

  /** Normalize raw weighted edges to a column-stochastic matrix and add a
    * weight-1 self-loop for every node with no in-edges. Parallel edges are
    * combined by summing their raw weights. Non-positive weights are dropped.
    */
  def normalize(spark: SparkSession, rawEdges: DataFrame, n: Long): DataFrame = {
    val edges = rawEdges
      .filter(col("w") > 0)
      .groupBy("src", "dst").agg(sum("w").as("w"))
    val inSum = edges.groupBy(col("dst")).agg(sum("w").as("insum"))
    val normalized = edges.join(inSum, "dst")
      .select(col("src"), col("dst"), (col("w") / col("insum")).as("w"))
    val nodes = spark.range(n).toDF("id")
    val sources = nodes.join(edges.select(col("dst").as("id")).distinct(), Seq("id"), "left_anti")
    val selfLoops = sources.select(col("id").as("src"), col("id").as("dst"), lit(1.0).as("w"))
    normalized.unionByName(selfLoops)
  }

  /** True iff [[edgeDefect]] finds no defect in `edges` over nodes `0 until n`. */
  def isColumnStochastic(edges: DataFrame, n: Long): Boolean = edgeDefect(inCsr(edges), n.toInt).isEmpty

  /** In-edge CSR of normalized edges, the one layout of `W` that the FJ
    * step loop, walks, RR sets and reach read: node `v`'s in-edges are
    * `in(v)`, sources `src` ascending, and edge `e` covers
    * `[hi(e) − w(e), hi(e))`, so they tile `[0, 1)`.
    */
  final case class InCsr(off: Array[Int], src: Array[Int], w: Array[Double], hi: Array[Double]) {
    def in(v: Int): Range = off(v) until off(v + 1)

    /** `v`'s in-edge whose interval holds `u`; past the last bound, the last. */
    def pick(v: Int, u: Double): Int = {
      val i = java.util.Arrays.binarySearch(hi, off(v), off(v + 1), u)
      math.min(if (i >= 0) i + 1 else -i - 1, off(v + 1) - 1)
    }
  }

  /** Collects `edges` into an [[InCsr]] over nodes `0` to the largest id;
    * edges with equal `src` and `dst` are ordered by weight.
    */
  def inCsr(edges: DataFrame): InCsr = {
    val es = edges.select(col("dst").cast("int"), col("src").cast("int"), col("w").cast("double"))
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2))).sorted
    require(es.forall(e => e._1 >= 0 && e._2 >= 0), "edges must have node ids >= 0")
    val byDst = es.groupBy(_._1)
    val in = (0 until es.map(e => math.max(e._1, e._2) + 1).maxOption.getOrElse(0))
      .map(byDst.getOrElse(_, Array.empty[(Int, Int, Double)]))
    InCsr(in.scanLeft(0)(_ + _.length).toArray, es.map(_._2), es.map(_._3),
      in.flatMap(_.map(_._3).scanLeft(0.0)(_ + _).tail).toArray)
  }

  /** The first defect of `csr` as the in-edges of a column-stochastic `W`
    * over nodes `0 until n`, each kind at its smallest node, in this order:
    * in-edges on a node outside `0 until n`, an in-edge from a source outside
    * it, a node with no in-edges, and in-weights whose total is off 1 by more
    * than 1e-9. `None` if there is none.
    */
  def edgeDefect(csr: InCsr, n: Int): Option[String] = {
    val nodes = csr.off.length - 1
    def total(v: Int) = csr.in(v).map(csr.w).sum
    (n until nodes).find(csr.in(_).nonEmpty).map(v => s"node $v has in-edges but no profile row")
      .orElse((0 until nodes).find(csr.in(_).exists(csr.src(_) >= n))
        .map(v => s"an in-edge of node $v comes from a node with no profile row"))
      .orElse((0 until n).find(v => v >= nodes || csr.in(v).isEmpty)
        .map(v => s"node $v has no in-edges; normalize the edges first"))
      .orElse((0 until n).find(v => math.abs(total(v) - 1.0) > 1e-9).map(v => s"the in-edge weights of node $v " +
        s"sum to ${total(v)}, not 1: edges are not column-stochastic; normalize the edges first"))
  }

  /** The draws of walk, RR set or start `id`: every sampler draws from
    * here, so a sample depends on `(seed, id)` only, not on partitioning.
    */
  def draws(seed: Long, id: Long): SplittableRandom = new SplittableRandom(XXH64.hashLong(id, seed))

  /** Pairs `(id, node)`, `id` in `0 until count`, `node` uniform in `0 until n` from the
    * draws of `id`: every uniform walk start and RR-set root is drawn here.
    */
  def uniformNodes(n: Long, count: Long, seed: Long): Seq[(Long, Long)] =
    (0L until count).map(id => (id, draws(seed, id).nextLong(n)))

  /** Node lists packed into three arrays: list `i` belongs to root
    * `roots(i)` and holds `nodes(off(i) until off(i + 1))`.
    */
  final class Packed(val roots: Array[Long], val off: Array[Int], val nodes: Array[Int]) {
    def size: Int = roots.length

    /** List `i`. */
    def nodesOf(i: Int): Array[Int] = nodes.slice(off(i), off(i + 1))

    /** Pairs `(node, root)` of every node of every list, in list order. */
    def pairs: Seq[(Long, Long)] =
      for (i <- 0 until size; j <- off(i) until off(i + 1)) yield (nodes(j).toLong, roots(i))
  }

  object Packed {
    /** The lists `(root, nodes)` of `lists`, in order. */
    def apply(lists: Seq[(Long, Seq[Int])]): Packed =
      new Packed(lists.map(_._1).toArray, lists.scanLeft(0)(_ + _._2.length).toArray, lists.flatMap(_._2).toArray)
  }

  /** The list `visit(root, node)` of each root `(root, node)` of `roots`,
    * packed in root order by a plain loop on the calling thread.
    */
  def perRoot(roots: Seq[(Long, Long)])(visit: (Long, Int) => Array[Int]): Packed = {
    val lists = roots.iterator.map { case (root, v) => visit(root, v.toInt) }.toArray
    val off = lists.scanLeft(0)(_ + _.length)
    val nodes = new Array[Int](off.last)
    lists.indices.foreach(i => System.arraycopy(lists(i), 0, nodes, off(i), lists(i).length))
    new Packed(roots.iterator.map(_._1).toArray, off, nodes)
  }

  /** Reverse BFS over `csr`, with one output array (also the queue) and
    * one set of marks reused by every call.
    */
  final class ReverseBfs(csr: InCsr) {
    private val out = new Array[Int](csr.off.length - 1)
    private val seen = new Array[Boolean](out.length)

    /** Nodes reaching `root` in at most `depth` hops over edges with
      * `live`, root first, in discovery order; `live(e)` is tested once on
      * each in-edge of a newly reached node, before its source's mark.
      */
    def apply(root: Int, depth: Int)(live: Int => Boolean): Array[Int] = {
      out(0) = root
      seen(root) = true
      var (from, size) = (0, 1)
      for (_ <- 1 to depth) { // an empty frontier stays empty
        val until = size
        while (from < until) { // while loops: this is the hot loop of reach and IC RR sets
          var e = csr.off(out(from))
          while (e < csr.off(out(from) + 1)) {
            val u = csr.src(e)
            if (live(e) && !seen(u)) { seen(u) = true; out(size) = u; size += 1 }
            e += 1
          }
          from += 1
        }
      }
      (0 until size).foreach(i => seen(out(i)) = false)
      java.util.Arrays.copyOf(out, size)
    }
  }

  /** The path of a reverse walk of at most `t` steps from `start`. At node
    * `v` it stops with probability `stop(v)`, else takes the in-edge a
    * uniform draw picks. A full-weight self-loop ends it, since that node's
    * opinion is frozen (§II-A); a partial one stays put. With `simple`, an
    * edge from a node on the path, the current one included, ends it too.
    */
  def reverseWalk(csr: InCsr, start: Int, t: Int, stop: Int => Double,
                  rng: SplittableRandom, simple: Boolean): Array[Int] = {
    var (path, size, step) = (new Array[Int](math.min(t, 15) + 1), 1, 0)
    path(0) = start
    while (step < t && rng.nextDouble() >= stop(path(size - 1))) {
      val e = csr.pick(path(size - 1), rng.nextDouble())
      val u = csr.src(e)
      if (u == path(size - 1) && csr.w(e) >= 1.0 - 1e-12 || simple && (0 until size).exists(path(_) == u)) step = t
      else {
        if (u != path(size - 1)) {
          if (size == path.length) path = java.util.Arrays.copyOf(path, 2 * size)
          path(size) = u
          size += 1
        }
        step += 1
      }
    }
    java.util.Arrays.copyOf(path, size)
  }

  /** Nodes within at most `t` outgoing hops of each node: rows
    * `(root, node)` with `root` reaching `node` in <= t hops (self included
    * at hop 0). This is the per-seed reachable-users set `N_{{s}}^{(t)}`
    * (Def 2) for every possible seed `s` at once, from a reverse BFS of
    * every `node`.
    */
  def reachWithin(spark: SparkSession, edges: DataFrame, n: Long, t: Int): DataFrame =
    reachWithin(spark, inCsr(edges), n, t)

  /** [[reachWithin]] over the in-edges `csr`, a local DataFrame. */
  def reachWithin(spark: SparkSession, csr: InCsr, n: Long, t: Int): DataFrame = {
    import spark.implicits._
    reach(csr, 0L until n, t).pairs.toDF("root", "node")
  }

  /** The reach set of each node `v` of `roots` over the in-edges `csr`:
    * the nodes reaching `v` in at most `t` hops, `v` first. Its
    * [[Packed.pairs]] over every node are [[reachWithin]]'s `(root, node)`.
    */
  def reach(csr: InCsr, roots: Seq[Long], t: Int): Packed = {
    val bfs = new ReverseBfs(csr)
    perRoot(roots.map(v => (v, v)))((_, v) => bfs(v, t)(_ => true))
  }

  /** Greedy maximum coverage over `pairs` `(set, elem)`, whose two columns
    * are a set id in `0 until n` and an element it covers: `k` picks, each
    * the set covering the most elements not yet covered, ties to the smaller
    * id. Once every element is covered, the smallest unpicked id is picked.
    * Returns each pick with its new coverage (the number of elements it
    * covers first). The pairs are collected once; the greedy runs on the
    * driver. Coverage is submodular, so greedy is (1-1/e)-approximate.
    */
  def maxCoverage(pairs: DataFrame, k: Int, n: Long): Seq[(Long, Long)] =
    maxCoverage(pairs.toDF("set", "elem").select(col("set").cast("long"), col("elem").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1))), k, n)

  /** [[maxCoverage]] of pairs `(set, elem)` on the driver. */
  def maxCoverage(pairs: Iterable[(Long, Long)], k: Int, n: Long): Seq[(Long, Long)] = {
    require(k >= 1 && k <= n, s"k=$k out of range [1, $n]")
    val elems = pairs.groupMap(_._1)(_._2)
    val covered = mutable.HashSet.empty[Long]
    var picks = Vector.empty[(Long, Long)]
    for (_ <- 1 to k) {
      // A set's coverage counts its pairs, duplicates included, with an uncovered element.
      val pick = elems.view.map { case (s, es) => (s, es.count(!covered(_)).toLong) }.filter(_._2 > 0)
        .minByOption { case (s, c) => (-c, s) }
        .getOrElse(((0L until n).find(v => !picks.exists(_._1 == v)).get, 0L)) // all covered
      picks :+= pick
      elems.get(pick._1).foreach(covered ++= _)
    }
    picks
  }

  /** Weighted out-degree per node: rows `(node, outdeg)`; nodes with no
    * out-edges get 0. Self-loops introduced by normalization are excluded
    * (they carry no social influence).
    */
  def weightedOutDegree(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val deg = edges.filter(col("src") =!= col("dst"))
      .groupBy(col("src").as("node")).agg(sum("w").as("outdeg"))
    spark.range(n).toDF("node").join(deg, Seq("node"), "left")
      .select(col("node"), coalesce(col("outdeg"), lit(0.0)).as("outdeg"))
  }
}
