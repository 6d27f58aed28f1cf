package repro.streaming

import scala.collection.mutable

import org.apache.spark.sql.{Dataset, Row}

import repro.zset.ZSet

/** Bridges a DBSP incremental circuit into Spark Structured Streaming: the
  * DBSP clock is the micro-batch sequence, so each `foreachBatch` invocation
  * is one tick. Input rows must carry a `__w` weight column (+1 inserts,
  * −1 deletes); the tick function is any incremental operator chain from
  * this library (its state lives across batches in this driver object).
  */
final class ForeachBatchDriver(tick: ZSet => ZSet) extends Serializable {
  private val buf = mutable.Buffer.empty[ZSet]

  /** Per-tick output deltas produced so far. */
  def outputs: Seq[ZSet] = buf.toSeq

  /** The handler to pass to `DataStreamWriter.foreachBatch`. Runs on the
    * driver; the batch is materialized (localCheckpoint) to detach the tick's
    * computation from the streaming source plan.
    */
  def handle(batch: Dataset[Row], batchId: Long): Unit =
    buf += tick(ZSet.raw(batch).compact()).compact()
}
