package org.apache.spark

/** Lets the benchmark's tracer wait until every posted listener event has
  * been delivered, so span statistics are complete when they are read. The
  * listener bus is private to Spark, hence this one-line bridge in its
  * package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
