package repro.core

import java.util.SplittableRandom
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.reflect.ClassTag
import GraphOps.{InCsr, Packed}

/** The Spark traversal kernel that the driver loop [[GraphOps.perRoot]]
  * replaced, with the boxed reverse BFS and walk it ran, kept as a test reference:
  * walks, RR sets and reach over it are the lists the driver loop must
  * reproduce. Its tasks return each block as its three arrays.
  */
object SparkTraversal {

  /** [[GraphOps.uniformNodes]] as an RDD. */
  def uniformNodes(sc: SparkContext, n: Long, count: Long, seed: Long): RDD[(Long, Long)] =
    sc.parallelize(0L until count).map(id => (id, GraphOps.draws(seed, id).nextLong(n)))

  /** `blocks` joined in order. */
  def concat(blocks: Seq[Packed]): Packed = {
    val ends = blocks.scanLeft(0)(_ + _.nodes.length)
    new Packed(Array.concat(blocks.map(_.roots): _*),
      Array.concat(Array(0) +: blocks.zip(ends).map { case (b, end) => b.off.tail.map(_ + end) }: _*),
      Array.concat(blocks.map(_.nodes): _*))
  }

  /** Runs `visit(shared, root, node)` on each root `(root, node)` of
    * `roots` with `shared` broadcast, in one job described as `phase`: each
    * task packs its lists into one [[Packed]] block, and the driver joins
    * them in root order. The thread's previous job description is restored.
    */
  def perRoot[S: ClassTag](phase: String, shared: S, roots: RDD[(Long, Long)])
                          (visit: (S, Long, Int) => Seq[Int]): Packed = {
    val sc = roots.sparkContext
    val (bc, previous) = (sc.broadcast(shared), sc.getLocalProperty("spark.job.description"))
    sc.setJobDescription(phase)
    try concat(roots.mapPartitions { rs =>
      val p = Packed(rs.map { case (root, v) => (root, visit(bc.value, root, v.toInt)) }.toSeq)
      Iterator((p.roots, p.off, p.nodes))
    }.collect().toSeq.map { case (roots, off, nodes) => new Packed(roots, off, nodes) })
    finally { sc.setJobDescription(previous); bc.destroy() }
  }

  /** Nodes reaching `root` in at most `depth` hops over edges with `live`,
    * root first; each in-edge of a newly reached node is tested once.
    */
  def reverseBfs(csr: InCsr, root: Int, depth: Int)(live: Int => Boolean): Seq[Int] = {
    val seen = mutable.LinkedHashSet(root)
    var frontier = Seq(root)
    for (_ <- 1 to depth) // an empty frontier stays empty
      frontier = for (v <- frontier; e <- csr.in(v) if live(e) && seen.add(csr.src(e))) yield csr.src(e)
    seen.toSeq
  }

  /** The path of a reverse walk of at most `t` steps from `start`. At node
    * `v` it stops with probability `stop(v)`, else takes the in-edge a
    * uniform draw picks. A full-weight self-loop ends it, since that node's
    * opinion is frozen (§II-A); a partial one stays put. With `simple`, an
    * edge from a node on the path, the current one included, ends it too.
    */
  def reverseWalk(csr: InCsr, start: Int, t: Int, stop: Int => Double,
                  rng: SplittableRandom, simple: Boolean): Seq[Int] = {
    val path = mutable.ArrayBuffer(start)
    var step = 0
    while (step < t && rng.nextDouble() >= stop(path.last)) {
      val e = csr.pick(path.last, rng.nextDouble())
      val u = csr.src(e)
      if (u == path.last && csr.w(e) >= 1.0 - 1e-12 || simple && path.contains(u)) step = t
      else {
        if (u != path.last) path += u
        step += 1
      }
    }
    path.toSeq
  }

  /** The path of the walk of each start `(wid, start)`, start first, in one job. */
  def walks(csr: InCsr, d: Array[Double], starts: RDD[(Long, Long)], t: Int, seed: Long): Packed =
    perRoot("walks", (csr, d), starts) { case ((csr, d), wid, start) =>
      reverseWalk(csr, start, t, d(_), GraphOps.draws(seed, wid), simple = false)
    }

  /** The RR set under `model` of each root `(rr, node)`, root first, in one job. */
  def sample(csr: InCsr, model: String, roots: RDD[(Long, Long)], maxDepth: Int, seed: Long): Packed = {
    val set: (InCsr, Int, SplittableRandom) => Seq[Int] = model match {
      case "ic" => (csr, root, rng) => reverseBfs(csr, root, maxDepth)(e => rng.nextDouble() < csr.w(e))
      case "lt" => (csr, root, rng) => reverseWalk(csr, root, maxDepth, _ => 0.0, rng, simple = true)
      case other => throw new IllegalArgumentException(s"unknown diffusion model: $other")
    }
    perRoot("RR sets", csr, roots)((csr, rr, root) => set(csr, root, GraphOps.draws(seed, rr)))
  }

  /** Each node's reach set, in one job. */
  def reach(csr: InCsr, n: Long, t: Int): Packed =
    perRoot("reach", csr, SparkContext.getOrCreate().parallelize(0L until n).map(v => (v, v))) { (csr, _, v) =>
      reverseBfs(csr, v, t)(_ => true)
    }
}
