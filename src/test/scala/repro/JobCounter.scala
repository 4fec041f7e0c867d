package repro

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Counts the Spark jobs and stages a block of code runs, and reads their
  * descriptions, for job-count guards.
  */
object JobCounter {

  /** `body`'s result and the number of jobs started while it ran. */
  def apply[A](spark: SparkSession)(body: => A): (A, Int) = {
    val (out, jobs, _) = withStages(spark)(body)
    (out, jobs)
  }

  /** `body`'s result, the number of jobs started and the number of stages
    * submitted while it ran; a stage a job skips is not counted.
    */
  def withStages[A](spark: SparkSession)(body: => A): (A, Int, Int) = {
    val jobs, stages = new AtomicInteger
    val out = listening(spark, new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    })(body)
    (out, jobs.get, stages.get)
  }

  /** `body`'s result and the `spark.job.description` of each job started
    * while it ran, in start order; `null` for a job with none.
    */
  def descriptions[A](spark: SparkSession)(body: => A): (A, Seq[String]) = {
    val described = new ConcurrentLinkedQueue[Option[String]]
    val out = listening(spark, new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        described.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))))
    })(body)
    (out, described.asScala.map(_.orNull).toSeq)
  }

  /** `body`'s result, with `listener` receiving exactly the events of the
    * jobs that `body` starts.
    */
  private def listening[A](spark: SparkSession, listener: SparkListener)(body: => A): A = {
    val sc = spark.sparkContext
    // Drain first so no earlier job's start event reaches the new listener.
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusAccess.drain(sc)
      out
    } finally sc.removeSparkListener(listener)
  }
}
