package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.experiments._

/** Shared spark-submit scaffolding for the experiment entrypoints. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def arg(args: Array[String], i: Int, default: String): String =
    if (args.length > i) args(i) else default
}

/** `spark-submit --class repro.jobs.Table1Matrix repro.jar [baseRows] [ticks]` */
object Table1Matrix {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-t1")
    try T1OperatorMatrix.emit(T1OperatorMatrix.run(spark,
      baseRows = Jobs.arg(args, 0, "50000").toLong,
      ticks = Jobs.arg(args, 1, "3").toInt))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E1IncrementalQuery repro.jar [sf]` */
object E1IncrementalQuery {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e1")
    try E1RelationalIvm.emit(E1RelationalIvm.run(spark,
      sf = Jobs.arg(args, 0, "0.1").toDouble,
      deltaFracs = Seq(0.0001, 0.001, 0.01, 0.1)))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E2Join repro.jar [baseRows] [nKeys]` */
object E2Join {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e2")
    val base = Jobs.arg(args, 0, "300000").toLong
    try E2IncrementalJoin.emit(E2IncrementalJoin.run(spark,
      baseRows = base,
      nKeys = Jobs.arg(args, 1, "30000").toLong,
      deltaSizes = Seq(base / 10000, base / 1000, base / 100, base / 10)))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E3Distinct repro.jar [baseRows] [nKeys]` */
object E3Distinct {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e3")
    val base = Jobs.arg(args, 0, "300000").toLong
    try E3IncrementalDistinct.emit(E3IncrementalDistinct.run(spark,
      baseRows = base,
      nKeys = Jobs.arg(args, 1, "50000").toLong,
      deltaSizes = Seq(base / 10000, base / 1000, base / 100, base / 10)))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E4SemiNaiveJob repro.jar [layers] [width] [fanout]` */
object E4SemiNaiveJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e4")
    try E4SemiNaive.emit(E4SemiNaive.run(spark,
      layers = Jobs.arg(args, 0, "8").toInt,
      width = Jobs.arg(args, 1, "40").toInt,
      fanout = Jobs.arg(args, 2, "3").toInt))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E5IncRecursion repro.jar [layers] [width] [fanout]` */
object E5IncRecursion {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e5")
    val width = Jobs.arg(args, 1, "40").toInt
    val updates = Seq[(Long, Long, Long)](
      (0L, 6L * width, 1L),
      (2L * width + 1, 2L * width + 2, 1L),
      (0L, 6L * width, -1L),
      (width.toLong, 2L * width, 1L))
    try E5IncrementalRecursion.emit(E5IncrementalRecursion.run(spark,
      layers = Jobs.arg(args, 0, "7").toInt,
      width = width,
      fanout = Jobs.arg(args, 2, "3").toInt,
      updates = updates))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E6AggregatesJob repro.jar [sf]` */
object E6AggregatesJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e6")
    try E6Aggregates.emit(E6Aggregates.run(spark,
      sf = Jobs.arg(args, 0, "0.05").toDouble,
      deltaSizes = Seq(100, 1000, 10000)))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.E7WindowJob repro.jar [ticks] [rowsPerTick]` */
object E7WindowJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("dbsp-e7")
    try E7Window.emit(E7Window.run(spark,
      ticks = Jobs.arg(args, 0, "8").toInt,
      rowsPerTick = Jobs.arg(args, 1, "20000").toLong,
      width = 25.0))
    finally spark.stop()
  }
}
