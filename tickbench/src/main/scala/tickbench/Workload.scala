package tickbench

import scala.collection.mutable

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.StructType

import repro.zset.ZSet

/** A set of maintained views driven over one change stream. Inputs are
  * generated from the seed before `setup`; `setup` builds fresh circuits and
  * brings them to the first measured tick; `tick` hands one pre-materialized
  * change batch to every view and collects every output delta.
  */
trait Workload {
  /** Input change rows per measured tick (C). */
  def changeRows: Int
  /** Measured ticks come in whole groups of this many; the gate runs after each group. */
  def checkEvery: Int
  def describe: String

  /** Generate the inputs from the seed and materialize the bulk batch. */
  def prepare(): Unit
  /** Fresh circuits, the bulk tick and any warm-up ticks. */
  def setup(tr: Tracer): Unit
  /** Materialize the change batch of measured tick `i`, outside the timed region. */
  def stageTick(i: Int): Unit
  /** Measured tick `i` (0-based): every view steps and emits. */
  def tick(i: Int, tr: Tracer): Unit
  /** Integrate the deltas emitted since the last call into the driver-side views. */
  def absorb(): Unit
  /** Compare every integrated view with the program's batch path over the
    * integrated input; on a mismatch the reference is reset to the batch
    * result so that later groups are judged on their own deltas.
    */
  def check(): Boolean
  /** Counters the layers report through their public results, summed over
    * the ticks since the end of the last set-up.
    */
  def counters: Map[String, Double] = Map.empty
  /** Drop every reference the benchmark holds to its inputs. */
  def releaseInputs(): Unit

  /** Self-test hook: flip the weight of one row of the next non-empty delta
    * the gate integrates.
    */
  var corruptNext: Boolean = false
}

object Workload {
  /** A Z-set over driver-side rows whose last column is the weight. */
  def rowsZ(spark: SparkSession, rows: Seq[Row], schema: StructType): ZSet = {
    import scala.jdk.CollectionConverters._
    ZSet.raw(spark.createDataFrame(rows.asJava, schema))
  }
}

/** A view's output integrated on the driver from the deltas it emitted:
  * canonical row -> weight, zero weights dropped.
  */
final class DriverView(val name: String) {
  private val m = mutable.HashMap.empty[Seq[Any], Long]

  def add(rows: Array[Row], wIdx: Int, corrupt: Boolean): Unit =
    rows.zipWithIndex.foreach { case (r, i) =>
      val k = DriverView.canon(r, wIdx)
      val w = if (corrupt && i == 0) -r.getLong(wIdx) else r.getLong(wIdx)
      val nw = m.getOrElse(k, 0L) + w
      if (nw == 0) m.remove(k) else m(k) = nw
    }

  def snapshot: Map[Seq[Any], Long] = m.toMap

  def resetTo(expected: Map[Seq[Any], Long]): Unit = { m.clear(); m ++= expected }
}

object DriverView {
  /** Data columns of a row, with doubles rounded so that sums evaluated in
    * different orders compare equal.
    */
  def canon(r: Row, wIdx: Int): Seq[Any] =
    (0 until r.length).filter(_ != wIdx).map { i =>
      r.get(i) match {
        case d: Double => BigDecimal(d).setScale(6, BigDecimal.RoundingMode.HALF_UP)
        case x         => x
      }
    }

  /** A consolidated Z-set collected into the driver-side form. */
  def of(z: ZSet): Map[Seq[Any], Long] = {
    val c = z.consolidate().df
    val wIdx = c.columns.indexOf(ZSet.W)
    c.collect().map(r => canon(r, wIdx) -> r.getLong(wIdx)).toMap
  }

  /** True when the view equals `expected`; otherwise report the difference
    * and reset the view to `expected`.
    */
  def matches(v: DriverView, expected: Map[Seq[Any], Long]): Boolean = {
    val ok = v.snapshot == expected
    if (!ok) {
      val got = v.snapshot
      val missing = expected.filterNot { case (k, w) => got.get(k).contains(w) }
      val extra = got.filterNot { case (k, w) => expected.get(k).contains(w) }
      Console.err.println(s"[gate] ${v.name}: ${missing.size} expected rows missing or " +
        s"mis-weighted, ${extra.size} unexpected; e.g. ${missing.take(2)} / ${extra.take(2)}")
      v.resetTo(expected)
    }
    ok
  }
}
