package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.expts._

/** spark-submit entrypoints, one per reproduced table. Example:
  *
  *   spark-submit --class repro.jobs.Table1Job target/scala-2.13/repro_2.13-*.jar
  *
  * Each prints the same rendered table as the corresponding bench suite.
  */
private[jobs] abstract class JobSession(name: String, table: SparkSession => String) {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try println(table(spark)) finally spark.stop()
  }
}

/** Table I: running-example scores (exact reproduction). */
object Table1Job extends JobSession("table1", Table1Exp.run(_)._1)

/** Table II: empirical score-property validation. */
object Table2Job extends JobSession("table2", Table2Exp.run(_)._1)

/** Table III: synthetic stand-in dataset characteristics. */
object Table3Job extends JobSession("table3", Table3Exp.run(_)._1)

/** Tables IV/V: scaled ACM-election case study. */
object Table4Job extends JobSession("table4", Table4Exp.run(_).text)

/** Table VI: minimum seeds to win per method. */
object Table6Job extends JobSession("table6", Table6Exp.run(_)._1)

/** Figs 6-8 shape: method comparison across voting scores. */
object CompareJob extends JobSession("compare", ComparisonExp.run(_)._1)
