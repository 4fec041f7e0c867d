package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs and stages a block of code runs, for job-count
  * guards.
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
