package repro.core

import java.util.SplittableRandom
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import scala.reflect.ClassTag

/** The tuple-form traversal kernel that the packed [[SparkTraversal.perRoot]]
  * replaced, kept as a test reference: each root's visit returns one tuple
  * per output row, and the job collects every tuple. Walks, RR sets and
  * reach over it are the rows the packed lists must reproduce.
  */
object TupleTraversal {

  /** Runs `visit` on each root of `roots` with `shared` broadcast, in one
    * job, and returns its output to the driver in root order.
    */
  def perRoot[S: ClassTag, R, T: ClassTag](shared: S, roots: RDD[R])(visit: (S, R) => Iterator[T]): Array[T] = {
    val bc = roots.sparkContext.broadcast(shared)
    try roots.mapPartitions(_.flatMap(visit(bc.value, _))).collect()
    finally bc.destroy()
  }

  /** The walk `(wid, start, path)` of each start `(wid, start)`, over the
    * in-edges `csr` with stubbornness `d(v)` at node `v` and horizon `t`,
    * in one job; walk `wid` draws from `GraphOps.draws(seed, wid)`.
    */
  def walks(csr: GraphOps.InCsr, d: Array[Double], starts: RDD[(Long, Long)], t: Int,
            seed: Long): Array[(Long, Long, Seq[Long])] =
    perRoot((csr, d), starts) { case ((csr, d), (wid, start)) =>
      val path = SparkTraversal.reverseWalk(csr, start.toInt, t, d(_), GraphOps.draws(seed, wid), simple = false)
      Iterator((wid, start, path.map(_.toLong)))
    }

  /** The RR set `(rr, node)` under `model` of each root `(rr, node)`, grown
    * over the in-edges `csr` with the draws of `rr`, in one job.
    */
  def sample(csr: GraphOps.InCsr, model: String, roots: RDD[(Long, Long)],
             maxDepth: Int, seed: Long): Array[(Long, Long)] = {
    val set: (GraphOps.InCsr, Int, SplittableRandom) => Seq[Int] = model match {
      case "ic" => (csr, root, rng) => SparkTraversal.reverseBfs(csr, root, maxDepth)(e => rng.nextDouble() < csr.w(e))
      case "lt" => (csr, root, rng) => SparkTraversal.reverseWalk(csr, root, maxDepth, _ => 0.0, rng, simple = true)
      case other => throw new IllegalArgumentException(s"unknown diffusion model: $other")
    }
    perRoot(csr, roots) { case (csr, (rr, root)) =>
      set(csr, root.toInt, GraphOps.draws(seed, rr)).iterator.map(v => (rr, v.toLong))
    }
  }

  /** Pairs `(root, node)` with `root` reaching `node` in at most `t` hops
    * over the in-edges `csr`, in one job.
    */
  def reach(csr: GraphOps.InCsr, n: Long, t: Int): Array[(Long, Long)] =
    perRoot(csr, SparkContext.getOrCreate().parallelize(0 until n.toInt)) { (csr, v) =>
      SparkTraversal.reverseBfs(csr, v, t)(_ => true).iterator.map(u => (u.toLong, v.toLong))
    }
}
