package tickbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One call into a layer, or one whole tick (parent 0). Wall-clock bounds
  * are kept in both clocks: nanoTime for durations, epoch millis to
  * intersect with the task intervals Spark reports.
  */
final class Span(val id: Int, val name: String, val parent: Int, val tick: Int) {
  val startNs: Long = System.nanoTime()
  val startMs: Long = System.currentTimeMillis()
  var endNs: Long = 0L
  var endMs: Long = 0L
  var rowsOut: Long = 0L
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans opened by the benchmark around its own calls into each module.
  * With tracing off, `span` only runs its body. With tracing on, the open
  * span's id is set as a SparkContext local property before the call; Spark
  * copies local properties into every job the call starts, including jobs
  * started on broadcast and adaptive-execution threads, which is how
  * [[SpanListener]] attributes jobs, stages and tasks.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var open: Option[Span] = None
  var tick: Int = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val parent = open
      val s = new Span(spans.size + 1, name, parent.map(_.id).getOrElse(0), tick)
      spans += s
      open = Some(s)
      sc.setLocalProperty(Tracer.Key, s.id.toString)
      try body
      finally {
        s.endNs = System.nanoTime(); s.endMs = System.currentTimeMillis()
        open = parent
        sc.setLocalProperty(Tracer.Key, parent.map(_.id.toString).orNull)
      }
    }

  /** Record the rows an emit span delivered to the driver. */
  def rowsOut(n: Long): Unit = open.foreach(_.rowsOut += n)
}

object Tracer {
  val Key = "tickbench.span"
}

/** Per-span totals derived from listener events. */
final case class SpanCost(jobs: Int, tasks: Int, taskMs: Double, busyMs: Double, shuffleBytes: Long)

/** Collects job, stage and task events and attributes each to the span id
  * found in its local properties. The listener bus delivers events on one
  * thread; results are read only after the bus has drained.
  */
final class SpanListener extends SparkListener {
  private final case class Task(span: Int, launchMs: Long, finishMs: Long, runMs: Long, shuffleBytes: Long)

  private val stageSpan = mutable.Map.empty[Int, Int]
  private val jobSpan = mutable.ArrayBuffer.empty[Int]
  private val tasks = mutable.ArrayBuffer.empty[Task]
  private val checkpointSpans = mutable.ArrayBuffer.empty[(Int, String)]

  /** Time spent inside this listener's callbacks: the tracing's own work. */
  var busyNs: Long = 0L
  private def timed(body: => Unit): Unit = {
    val t0 = System.nanoTime(); body; busyNs += System.nanoTime() - t0
  }

  private def spanOf(p: java.util.Properties): Int =
    Option(p).flatMap(q => Option(q.getProperty(Tracer.Key))).map(_.toInt).getOrElse(0)

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val span = spanOf(e.properties)
    jobSpan += span
    // The result stage carries the call site of the action that started the job.
    e.stageInfos.sortBy(_.stageId).lastOption.foreach { st =>
      if (st.name.startsWith("localCheckpoint at "))
        checkpointSpans += span -> SpanListener.callerModule(st.details)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = timed {
    stageSpan(e.stageInfo.stageId) = spanOf(e.properties)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val span = stageSpan.getOrElse(e.stageId, 0)
    val m = Option(e.taskMetrics)
    tasks += Task(span, e.taskInfo.launchTime, e.taskInfo.finishTime,
      m.map(_.executorRunTime).getOrElse(0L),
      m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L))
  }

  /** Costs of the given spans, keyed by span id. `busyMs` is the part of the
    * span's wall interval covered by at least one of its running tasks.
    */
  def costs(spans: Seq[Span]): Map[Int, SpanCost] = {
    val jobsBy = jobSpan.groupBy(identity).map { case (k, v) => k -> v.size }
    val tasksBy = tasks.groupBy(_.span)
    spans.map { s =>
      val ts = tasksBy.getOrElse(s.id, Seq.empty)
      val busy = SpanListener.unionMs(ts.map(t => (t.launchMs max s.startMs, t.finishMs min s.endMs)))
      s.id -> SpanCost(jobsBy.getOrElse(s.id, 0), ts.size, ts.map(_.runMs).sum.toDouble, busy,
        ts.map(_.shuffleBytes).sum)
    }.toMap
  }

  /** `localCheckpoint` jobs per calling module, restricted to the given spans. */
  def checkpointJobsIn(spanIds: Set[Int]): Map[String, Int] =
    checkpointSpans.filter { case (s, _) => spanIds(s) }.groupBy(_._2).map { case (k, v) => k -> v.size }
}

object SpanListener {
  /** The module of the first `repro.<module>.` frame in a long call site. */
  def callerModule(details: String): String =
    details.linesIterator.map(_.trim).collectFirst {
      case l if l.startsWith("repro.") => l.split('.')(1)
    }.getOrElse("other")

  /** Total length of the union of [a, b) intervals. */
  def unionMs(iv: Iterable[(Long, Long)]): Double = {
    var total = 0L; var curA = Long.MinValue; var curB = Long.MinValue
    for ((a, b) <- iv.filter { case (a, b) => b > a }.toSeq.sortBy(_._1)) {
      if (a > curB) { total += curB - curA; curA = a; curB = b }
      else curB = curB max b
    }
    (total + curB - curA).toDouble
  }
}
