package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: it accepts an equal result and rejects a
  * wrong one, so the suites that lean on it can fail.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val items = Seq(
    (1L, "A", 17.0), (1L, "N", 36.5), (2L, "R", 8.25), (3L, "A", 28.0),
    (3L, "N", 24.0), (4L, "R", 32.75), (5L, "A", 2.0), (5L, "N", 45.5),
  ).toDF("orderkey", "flag", "quantity").localCheckpoint(true)

  test("Oracle validates a Spark aggregation against DuckDB") {
    val got = items.groupBy("flag")
      .agg(round(sum("quantity"), 4).as("sum_qty"),
           count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      """SELECT flag, ROUND(SUM(CAST(quantity AS DOUBLE)), 4) AS sum_qty,
        |       COUNT(*) AS cnt
        |FROM items GROUP BY flag""".stripMargin,
      "items" -> items)
  }

  test("Oracle rejects a wrong aggregation (the oracle actually bites)") {
    val wrong = items.groupBy("flag")
      .agg((count(lit(1)) + 1).as("cnt")) // off by one
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT flag, COUNT(*) AS cnt FROM items GROUP BY flag",
        "items" -> items)
    }
  }

  test("Oracle rejects mismatched column sets") {
    val df = items.select(col("orderkey").as("a"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT orderkey AS b FROM items", "items" -> items)
    }
  }
}
