package tickbench

import java.sql.DriverManager

import scala.collection.mutable

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types._

import repro.SynthGraph
import repro.nested.IncrementalTransitiveClosure
import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** The Figure 2 circuit (`IncrementalTransitiveClosure`) over a layered DAG
  * under single-edge churn: even ticks insert a random edge that skips one
  * layer, odd ticks delete it again, so the graph returns to the bulk-loaded
  * one every second tick.
  */
final class Closure(spark: SparkSession, layers: Int, width: Int, fanout: Int, seed: Long)
    extends Workload {
  val changeRows: Int = 1
  // One warm-up insert per set-up; the measured group deletes that edge and
  // inserts the next one.
  val checkEvery: Int = 2
  private val warmupTicks = 1

  private val schema = StructType(TransitiveClosure.eSchema.fields :+ StructField(ZSet.W, LongType))
  private var edges: Seq[(Long, Long)] = Nil
  private var bulk: ZSet = _
  private val changes = mutable.Map.empty[Int, ((Long, Long), ZSet)] // by global tick
  private val rng = new java.util.Random(seed)

  private var itc: IncrementalTransitiveClosure = _
  private var view: DriverView = _
  private var live: Option[(Long, Long)] = None // the inserted edge, if any
  private var pending: Array[Row] = Array.empty
  private val sums = mutable.Map.empty[String, Double].withDefaultValue(0.0)

  def describe: String =
    s"layers=$layers width=$width fanout=$fanout edges=${edges.size} C=1 (insert, then delete)"

  def prepare(): Unit = {
    edges = SynthGraph.layeredEdges(spark, layers, width, fanout, seed).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq.sorted
    bulk = Workload.rowsZ(spark, edges.map { case (h, t) => Row(h, t, 1L) }, schema).compact()
  }

  private def stage(t: Int): Unit = if (!changes.contains(t)) {
    val (edge, w) =
      if (t % 2 == 1) { stage(t - 1); (changes(t - 1)._1, -1L) }
      else {
        val l = rng.nextInt(layers - 2)
        ((l.toLong * width + rng.nextInt(width), (l + 2).toLong * width + rng.nextInt(width)), 1L)
      }
    changes(t) = edge -> Workload.rowsZ(spark, Seq(Row(edge._1, edge._2, w)), schema).compact()
  }

  def setup(tr: Tracer): Unit = {
    itc = new IncrementalTransitiveClosure(spark)
    view = new DriverView("closure")
    live = None
    apply(bulk, tr)
    absorb()
    (0 until warmupTicks).foreach { t => stage(t); applyChange(t, tr); absorb() }
    sums.clear()
  }

  def stageTick(i: Int): Unit = stage(warmupTicks + i)

  def tick(i: Int, tr: Tracer): Unit = applyChange(warmupTicks + i, tr)

  private def applyChange(t: Int, tr: Tracer): Unit = {
    val (edge, d) = changes(t)
    live = if (live.isEmpty) Some(edge) else None
    val stats = apply(d, tr)
    sums("nested.inner_iterations") += stats.innerIterations
    sums("nested.delta_tuples") += stats.totalDelta
    sums("nested.productive_iterations") += stats.deltaSizesPerIteration.count(_ > 0)
  }

  private def apply(d: ZSet, tr: Tracer) = {
    val (out, stats) = tr.span("nested.step")(itc.step(d))
    pending = tr.span("nested.emit") { val r = out.df.collect(); tr.rowsOut(r.length); r }
    stats
  }

  def absorb(): Unit = {
    if (pending.nonEmpty) {
      view.add(pending, pending.head.fieldIndex(ZSet.W), corruptNext)
      corruptNext = false
    }
    pending = Array.empty
  }

  override def counters: Map[String, Double] = sums.toMap

  /** DuckDB's recursive CTE (`TransitiveClosure.oracleSql`) over the edge set. */
  def check(): Boolean = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val expected = try {
      conn.createStatement.execute("CREATE TABLE e (h BIGINT, t BIGINT)")
      val ps = conn.prepareStatement("INSERT INTO e VALUES (?, ?)")
      (edges ++ live).foreach { case (h, t) => ps.setLong(1, h); ps.setLong(2, t); ps.addBatch() }
      ps.executeBatch(); ps.close()
      val rs = conn.createStatement.executeQuery(TransitiveClosure.oracleSql)
      val out = mutable.Map.empty[Seq[Any], Long]
      while (rs.next()) out(Seq(rs.getLong(1), rs.getLong(2))) = 1L
      out.toMap
    } finally conn.close()
    DriverView.matches(view, expected)
  }

  def releaseInputs(): Unit = { bulk = null; changes.clear() }
}
