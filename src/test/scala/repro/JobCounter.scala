package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code runs, for job-count guards. */
object JobCounter {

  /** `body`'s result and the number of jobs started while it ran. */
  def apply[A](spark: SparkSession)(body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    // Drain first so no earlier job's start event reaches the new listener.
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusAccess.drain(sc)
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
