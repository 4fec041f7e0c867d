package repro.perfbench

import org.apache.spark.sql.SparkSession

/** The pinned Spark configuration every run uses, as in the program's
  * `JobSession`, except that the master is fixed at `local[4]` instead of
  * `local[*]`: results and timings depend on core and partition counts, so
  * runs are only comparable under one configuration.
  */
object Session {

  val Pinned: Seq[(String, String)] = Seq(
    "spark.master" -> "local[4]",
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.adaptive.enabled" -> "true",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
  )

  def start(): SparkSession = {
    val b = SparkSession.builder.appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // Large enough that the tracer's listener never drops task events.
      .config("spark.scheduler.listenerbus.eventqueue.capacity", "200000")
    sys.props.get("perfbench.localDir").foreach { d =>
      b.config("spark.local.dir", d).config("spark.sql.warehouse.dir", s"$d/warehouse")
    }
    val spark = Pinned.foldLeft(b) { case (acc, (k, v)) => acc.config(k, v) }.getOrCreate()
    val conf = spark.conf
    Pinned.foreach { case (k, v) =>
      val got = conf.getOption(k).getOrElse(spark.sparkContext.getConf.get(k, ""))
      require(got == v, s"pinned config $k=$v but the session has $got")
    }
    spark
  }

  /** The configuration a result was measured under. */
  def describe(spark: SparkSession): Seq[(String, String)] =
    Pinned ++ Seq(
      "spark.version" -> spark.version,
      "java.version" -> sys.props("java.version"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_hash" -> sys.props.getOrElse("perfbench.sourceHash", "unknown"),
    )
}
