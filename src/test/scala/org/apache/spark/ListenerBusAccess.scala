package org.apache.spark

/** Lets tests wait until every posted listener event has been delivered,
  * so a listener's counts are complete when they are read. The listener bus
  * is private to Spark, hence this one-line bridge in its package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
