package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.Statistics
import org.apache.spark.sql.catalyst.plans.logical.statsEstimation.EstimationUtils
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.execution.LogicalRDD

/** A checkpointed DataFrame re-exposed with what its materialization
  * observed. `localCheckpoint` leaves Catalyst two wrong beliefs about the
  * result: its size is the estimate of the plan that computed it (an
  * equi-join estimates the product of its inputs), and its partitioning is
  * unknown whenever adaptive execution ran that plan. Both make Catalyst
  * plan exchanges over a small result. This scan carries the observed row
  * count as its statistics and, when the estimated size fits the given
  * limit, is one partition reported as `SinglePartition`.
  *
  * It lives in Spark's package because building a DataFrame from a logical
  * plan (`Dataset.ofRows`) is private to it.
  */
object CheckpointScan {
  /** The scan, and whether it is one partition. */
  def apply(checkpoint: DataFrame, rows: Long, singlePartitionBytes: Long): (DataFrame, Boolean) =
    checkpoint.queryExecution.logical match {
      case scan: LogicalRDD =>
        val session = checkpoint.sparkSession.asInstanceOf[classic.SparkSession]
        val stats = Statistics(
          sizeInBytes = EstimationUtils.getSizePerRow(scan.output) * rows,
          rowCount = Some(BigInt(rows)))
        val singlePartition = stats.sizeInBytes <= singlePartitionBytes
        val rdd =
          if (singlePartition && scan.rdd.getNumPartitions != 1) scan.rdd.coalesce(1)
          else scan.rdd
        val partitioning = if (singlePartition) SinglePartition else scan.outputPartitioning
        (classic.Dataset.ofRows(session,
          LogicalRDD(scan.output, rdd, partitioning, Nil, scan.isStreaming)(session, Some(stats))),
          singlePartition)
      case other =>
        throw new IllegalArgumentException(s"not a checkpoint scan: ${other.nodeName}")
    }
}
