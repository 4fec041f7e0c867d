package repro.perfbench

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Span recorder and the `SparkListener` that attributes Spark work to spans.
  *
  * A span labels the driver thread with the SparkContext local property
  * [[Tracer.Key]] while it is open. Spark copies local properties into every
  * job it submits on the thread's behalf, including the jobs adaptive query
  * execution submits from its own threads, so each job start event names
  * the span that caused it. Stack call sites would not: those async jobs
  * carry none. Spans do not nest; the benchmark opens them only around its
  * own calls into the program.
  *
  * Per span name the tracer sums, over all calls: wall time, jobs, executor
  * busy time of their tasks, shuffle bytes written, and driver time — span
  * wall time during which none of the span's jobs was running. Spans stay
  * in memory until [[stats]] reads them.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer._

  private final case class Job(label: String, start: Long, var end: Long = -1)
  private final case class Call(name: String, label: String, startMs: Long, endMs: Long, nanos: Long)

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageLabel = mutable.HashMap.empty[Int, String]
  private val taskMs = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val shuffleBytes = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val calls = mutable.ArrayBuffer.empty[Call]
  private var nextCall = 0

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val label = Option(e.properties).flatMap(p => Option(p.getProperty(Key))).getOrElse(Unlabelled)
    jobs(e.jobId) = Job(label, e.time)
    e.stageIds.foreach(stageLabel(_) = label)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val label = stageLabel.getOrElse(e.stageId, Unlabelled)
    Option(e.taskMetrics).foreach { m =>
      taskMs(label) += m.executorRunTime
      shuffleBytes(label) += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Run `body` as one call of span `name`. */
  def span[A](name: String)(body: => A): A = {
    val label = synchronized { nextCall += 1; s"$name#$nextCall" }
    sc.setLocalProperty(Key, label)
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      val nanos = System.nanoTime() - t0
      val endMs = System.currentTimeMillis()
      sc.setLocalProperty(Key, null)
      synchronized { calls += Call(name, label, startMs, endMs, nanos) }
    }
  }

  /** Jobs so far that no span claimed. */
  def unlabelledJobs(): Int = { ListenerBusAccess.drain(sc); synchronized(jobs.values.count(_.label == Unlabelled)) }

  /** Per span name, summed over its calls. */
  def stats(): Map[String, SpanStats] = {
    ListenerBusAccess.drain(sc)
    synchronized {
      val byLabel = jobs.values.groupBy(_.label)
      calls.groupBy(_.name).map { case (name, cs) =>
        val perCall = cs.map { c =>
          val js = byLabel.getOrElse(c.label, Nil)
          SpanStats(calls = 1, ms = c.nanos / 1e6, jobs = js.size,
            taskS = taskMs(c.label) / 1e3, shuffleMb = shuffleBytes(c.label) / 1e6,
            driverS = math.max(0L, (c.endMs - c.startMs) - covered(js, c.startMs, c.endMs)) / 1e3)
        }
        name -> perCall.reduce(_ + _)
      }
    }
  }

  /** Drop all recorded spans and jobs. */
  def reset(): Unit = {
    ListenerBusAccess.drain(sc)
    synchronized {
      jobs.clear(); stageLabel.clear(); taskMs.clear(); shuffleBytes.clear(); calls.clear()
    }
  }

  /** Milliseconds of `[from, to]` during which at least one of `js` ran. */
  private def covered(js: Iterable[Job], from: Long, to: Long): Long = {
    var total = 0L
    var reach = from
    for (j <- js.toSeq.sortBy(_.start)) {
      val s = math.max(j.start, reach)
      val e = math.min(if (j.end < 0) to else j.end, to)
      if (e > s) { total += e - s; reach = e }
    }
    total
  }
}

object Tracer {
  val Key = "perfbench.span"
  val Unlabelled = "(none)"
}

/** The six statistics of a span, summed over its calls. */
final case class SpanStats(calls: Int, ms: Double, jobs: Int, taskS: Double,
                           shuffleMb: Double, driverS: Double) {
  def +(o: SpanStats): SpanStats = SpanStats(calls + o.calls, ms + o.ms, jobs + o.jobs,
    taskS + o.taskS, shuffleMb + o.shuffleMb, driverS + o.driverS)

  def fields: Seq[(String, Double, String)] = Seq(
    ("ms", ms, "ms"), ("calls", calls.toDouble, "count"), ("jobs", jobs.toDouble, "count"),
    ("task_s", taskS, "s"), ("shuffle_mb", shuffleMb, "MB"), ("driver_s", driverS, "s"))
}

object SpanStats {
  val Zero: SpanStats = SpanStats(0, 0, 0, 0, 0, 0)
}
