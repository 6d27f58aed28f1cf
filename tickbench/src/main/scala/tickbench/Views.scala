package tickbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.SynthData
import repro.agg.{AggFunc, GroupAggregate, IncrementalGroupAggregate}
import repro.harness.experiments.E1RelationalIvm
import repro.relational.{Incrementalizer, IncrementalRunner}
import repro.zset.{Accumulator, ZSet}

/** Three views maintained over one `orders` change stream (TPC-H-lite):
  * the §4.4 view (`E1RelationalIvm.query` through Algorithm 4.8), and
  * SUM and MIN of `o_totalprice` grouped by `o_custkey`. Each tick inserts
  * `half` new orders and retracts the `half` oldest live ones, so the
  * relation size R stays constant while C = 2·half rows change.
  */
final class Views(spark: SparkSession, sf: Double, half: Int, seed: Long)
    extends Workload {
  val changeRows: Int = 2 * half
  // Eight ticks per gate group: a run of one group fits the time budget.
  // The bulk tick is every accumulator's first add, so the first
  // consolidation (the 16th add) falls on measured tick 14, outside the
  // group: every run compares like with like.
  val checkEvery: Int = Accumulator.DefaultConsolidateEvery / 2

  private val cols = Seq("o_orderkey", "o_custkey", "o_totalprice")
  private val schema = StructType(Seq(
    StructField("o_orderkey", LongType), StructField("o_custkey", LongType),
    StructField("o_totalprice", DoubleType), StructField(ZSet.W, LongType)))
  private val sumF = AggFunc.Sum("o_totalprice")
  private val minF = AggFunc.Min("o_totalprice")
  private val byCust = Seq("o_custkey")

  private var base: DataFrame = _      // orders 1..n, the bulk-loaded relation
  private var extra: DataFrame = _     // orders n+1.., inserted one tick at a time
  private var n: Long = 0L
  private var customer: ZSet = _
  private var bulk: ZSet = _
  private var emptyCustomer: ZSet = _
  private val changes = mutable.Map.empty[Int, ZSet] // by measured tick

  private var e1: IncrementalRunner = _
  private var sumOp: IncrementalGroupAggregate = _
  private var minOp: IncrementalGroupAggregate = _
  private var views: Seq[DriverView] = Nil
  private val pending = mutable.ArrayBuffer.empty[(DriverView, Array[Row])]
  private var applied = 0 // change ticks applied since the bulk tick

  def describe: String =
    s"sf=$sf orders=$n C=$changeRows (+$half/-$half per tick)"

  def prepare(): Unit = {
    base = SynthData.orders(spark, sf, seed).select(cols.map(col): _*).localCheckpoint()
    n = base.count()
    extra = SynthData.orders(spark, sf, seed + 1).select(cols.map(col): _*)
      .withColumn("o_orderkey", col("o_orderkey") + n).localCheckpoint()
    customer = ZSet.fromSet(SynthData.customer(spark, sf, seed + 2)
      .select("c_custkey", "c_mktsegment")).compact()
    emptyCustomer = ZSet.empty(spark, customer.dataSchema)
    bulk = ZSet.fromSet(base).compact()
  }

  /** Change batch of tick `t`: orders n+t·half+1.. in, 1+t·half.. out. */
  def stageTick(t: Int): Unit = if (!changes.contains(t)) {
    val lo = t.toLong * half
    val in = extra.where(col("o_orderkey") > n + lo && col("o_orderkey") <= n + lo + half)
      .withColumn(ZSet.W, lit(1L))
    val out = base.where(col("o_orderkey") > lo && col("o_orderkey") <= lo + half)
      .withColumn(ZSet.W, lit(-1L))
    val rows = in.unionByName(out).collect().toSeq
    require(rows.size == changeRows, s"tick $t: ${rows.size} change rows, expected $changeRows")
    changes(t) = Workload.rowsZ(spark, rows, schema).compact()
  }

  def setup(tr: Tracer): Unit = {
    e1 = Incrementalizer.incremental(E1RelationalIvm.query)
    sumOp = new IncrementalGroupAggregate(byCust, sumF)
    minOp = new IncrementalGroupAggregate(byCust, minF)
    views = Seq(new DriverView("e1"), new DriverView("sum"), new DriverView("min"))
    pending.clear()
    applied = 0
    apply(bulk, customer, tr)
  }

  def tick(i: Int, tr: Tracer): Unit = {
    apply(changes(i), emptyCustomer, tr)
    applied += 1
  }

  private def apply(d: ZSet, c: ZSet, tr: Tracer): Unit = {
    val Seq(ve1, vsum, vmin) = views
    val o1 = tr.span("relational.step")(e1.step(Map("orders" -> d, "customer" -> c)))
    emit(tr, "relational.emit", o1, ve1)
    val o2 = tr.span("agg_sum.step")(sumOp.step(d))
    emit(tr, "agg_sum.emit", o2, vsum)
    val o3 = tr.span("agg_min.step")(minOp.step(d))
    emit(tr, "agg_min.emit", o3, vmin)
  }

  private def emit(tr: Tracer, span: String, z: ZSet, v: DriverView): Unit = {
    val rows = tr.span(span) { val r = z.df.collect(); tr.rowsOut(r.length); r }
    pending += v -> rows
  }

  def absorb(): Unit = {
    pending.foreach { case (v, rows) =>
      if (rows.nonEmpty) {
        val wIdx = rows.head.fieldIndex(ZSet.W)
        v.add(rows, wIdx, corruptNext)
        corruptNext = false
      }
    }
    pending.clear()
  }

  def check(): Boolean = {
    val lo = applied.toLong * half
    val live = ZSet.fromSet(base.where(col("o_orderkey") > lo)
      .unionByName(extra.where(col("o_orderkey") <= n + lo))).compact()
    val Seq(ve1, vsum, vmin) = views
    val expected = Seq(
      Incrementalizer.batch(E1RelationalIvm.query, Map("orders" -> live, "customer" -> customer)),
      GroupAggregate.batch(live, byCust, sumF),
      GroupAggregate.batch(live, byCust, minF))
    Seq(ve1, vsum, vmin).zip(expected)
      .map { case (v, z) => DriverView.matches(v, DriverView.of(z)) }
      .forall(identity)
  }

  def releaseInputs(): Unit = {
    base = null; extra = null; customer = null; bulk = null; emptyCustomer = null
    changes.clear()
  }
}
