package tickbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession

/** Tick-latency benchmark for maintained views.
  *
  * {{{
  *   tickbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--selftest]
  * }}}
  * One driver thread steps the circuits in a closed loop, one tick in
  * flight. A tick starts when a materialized change batch is handed to the
  * first view and ends when every view's output delta has been collected to
  * the driver. Measured ticks come in whole groups (`Workload.checkEvery`)
  * until `--seconds` of tick time have been measured; the correctness gate
  * runs after each group, outside the timed region. Spark runs locally on
  * at most four cores with the test suite's session settings. The last
  * stdout line is the JSON result: end-to-end metrics with `--trace 0`,
  * per-layer metrics with `--trace 1`.
  */
object Main {
  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, selftest: Boolean)

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRuns = 2
  val ShufflePartitions = 64

  // Sizes are set so that a run of either workload, set-ups included, takes
  // about a minute: a view tick costs tens of Spark jobs, a closure tick ~90.
  val Workloads: Map[String, (SparkSession, Long) => Workload] = Map(
    // SF 0.05: 75k orders, 7.5k customers; C = 100 (50 in, 50 out).
    "views-trickle" -> ((s, seed) => new Views(s, 0.05, 50, seed)),
    // Layered DAG, 3 layers of 10 nodes, fanout 3; C = 1 edge.
    "closure" -> ((s, seed) => new Closure(s, 3, 10, 3, seed)),
  )

  def parse(args: Array[String]): Opts = {
    val kv = mutable.Map.empty[String, String]
    var selftest = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--selftest" => selftest = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => kv(k.drop(2)) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument: $other")
      }
    }
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      }, selftest)
    require(Workloads.contains(o.workload),
      s"unknown workload ${o.workload}; one of ${Workloads.keys.toSeq.sorted.mkString(", ")}")
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = try parse(args) catch {
      case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2)
    }
    log("jvm up")
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("tickbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    val code = try run(spark, o) finally spark.stop()
    log("session stopped")
    sys.exit(code)
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(spark: SparkSession, o: Opts): Int = {
    val sc = spark.sparkContext
    val w = Workloads(o.workload)(spark, o.seed)
    log("session up")
    w.prepare()
    log("inputs prepared")
    println(s"config: workload=${o.workload} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} " +
      s"master=${sc.master} cores=${sc.defaultParallelism} " +
      s"driver_heap_mb=${Runtime.getRuntime.maxMemory >> 20} " +
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"auto_broadcast=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"spark=${spark.version} ${w.describe}")

    // Set-up: fresh circuits each time; the last ones are measured.
    val off = new Tracer(sc, enabled = false)
    val setupS = (0 until SetupRuns).map { _ =>
      System.gc()
      val t0 = System.nanoTime()
      w.setup(off)
      val s = secs(t0)
      w.absorb()
      s
    }
    log(f"setup: ${setupS.map(s => f"$s%.3f").mkString(" ")} s")
    // Collect the set-up's garbage (bulk outputs) before the first measured tick.
    System.gc()

    var next = 0 // ticks applied since the last set-up
    def timedTick(tr: Tracer): (Double, Boolean) = {
      val i = next
      w.stageTick(i)
      if (o.selftest && i == w.checkEvery) w.corruptNext = true
      tr.tick = i
      val t0 = System.nanoTime()
      val threw =
        try { tr.span("tick")(w.tick(i, tr)); false }
        catch { case NonFatal(e) => Console.err.println(s"tick $i failed: $e"); true }
      val ms = (System.nanoTime() - t0) / 1e6
      w.absorb()
      next += 1
      log(f"tick $i: $ms%.1f ms")
      (ms, threw)
    }

    // Whole groups of ticks until `seconds` of tick time; the gate runs
    // after each group and a failed check fails every tick of the group.
    def measure(tr: Tracer, minGroups: Int): (Seq[Double], Int, Int) = {
      val lat = mutable.ArrayBuffer.empty[Double]
      var failed = 0
      var groups = 0
      while (groups < minGroups || lat.sum < o.seconds * 1000.0) {
        val results = (0 until w.checkEvery).map(_ => timedTick(tr))
        lat ++= results.map(_._1)
        val ok = guarded(w.check())
        log(s"gate: ${if (ok) "ok" else "FAILED"}")
        failed += (if (ok) results.count(_._2) else w.checkEvery)
        groups += 1
      }
      (lat.toSeq, failed, groups)
    }

    if (o.selftest) {
      // One corrupted delta in the second group: the gate must fail exactly that group.
      val (lat, failed, _) = measure(off, minGroups = 2)
      val caught = failed == w.checkEvery
      println(s"selftest: one corrupted delta in tick ${w.checkEvery}; gate counted $failed of ${lat.size} " +
        s"ticks as failed (expected ${w.checkEvery}): ${if (caught) "ok" else "NOT CAUGHT"}")
      return if (caught) 0 else 1
    }

    val listener = new SpanListener
    if (o.trace) sc.addSparkListener(listener)
    val tr = new Tracer(sc, enabled = o.trace)
    val (lat, failed, groups) = measure(tr, 1)
    val n = lat.size
    val correct = failed == 0

    val p50 = median(lat)
    // The slowest tick (p100 of n). A percentile above the median with ten
    // ticks beyond it would need over twenty ticks per run, and a tick costs
    // seconds; every run measures the same ticks of the same cycle instead.
    val tail = lat.max
    println(f"ticks: n=$n groups=$groups p50=$p50%.3f ms tail(p100 of $n)=$tail%.3f ms " +
      f"tick_error_rate=${failed.toDouble / n}%.4f")

    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) {
        val rowsPerS = w.changeRows.toDouble * n / (lat.sum / 1000.0)
        w.releaseInputs()
        val stateMb = blockManagerBytes(spark) / 1e6
        log("state read")
        Seq(
          ("tick_p50_ms", p50, "ms"),
          ("tick_tail_ms", tail, "ms"),
          ("change_rows_per_s", rowsPerS, "rows/s"),
          ("setup_s", median(setupS), "s"),
          ("state_mb", stateMb, "MB"))
      } else {
        ListenerBusDrain(sc)
        writeSpans(tr, listener, s"${o.workload}-seed${o.seed}")
        layerMetrics(tr, listener, w.counters, n, p50)
      }
    metrics.foreach { case (k, v, u) => println(f"metric $k%-32s $v%.4f $u") }
    val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $n, "failed": $failed, "metrics": {${body.mkString(", ")}}}""")
    0
  }

  private val started = System.nanoTime()
  private def log(msg: String): Unit = Console.err.println(f"[tickbench ${secs(started)}%7.1f s] $msg")

  private def guarded(check: => Boolean): Boolean =
    try check catch { case NonFatal(e) => Console.err.println(s"gate error: $e"); false }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric $v")
    java.lang.Double.toString(v)
  }

  /** Bytes the block manager holds for persisted RDDs (operator state once
    * the benchmark has dropped its inputs), read after a forced GC has let
    * the context cleaner remove every unreferenced block.
    */
  def blockManagerBytes(spark: SparkSession): Long = {
    def read() = spark.sparkContext.getRDDStorageInfo.map(r => r.memSize + r.diskSize).sum
    var last = -1L; var cur = read(); var stable = 0; var rounds = 0
    while (stable < 3 && rounds < 50) {
      System.gc(); Thread.sleep(100)
      last = cur; cur = read(); rounds += 1
      if (cur == last) stable += 1 else stable = 0
    }
    cur
  }

  /** Every span of the traced run, one line each, under `-Dtickbench.traceDir`. */
  def writeSpans(tr: Tracer, l: SpanListener, name: String): Unit =
    sys.props.get("tickbench.traceDir").foreach { dir =>
      val f = new java.io.File(dir, s"spans-$name.tsv")
      f.getParentFile.mkdirs()
      val cost = l.costs(tr.spans.toSeq)
      val t0 = tr.spans.headOption.map(_.startNs).getOrElse(0L)
      val out = new java.io.PrintWriter(f)
      try {
        out.println("id\tparent\tname\ttick\tstart_ms\tend_ms\tjobs\ttasks\ttask_ms\tbusy_ms\tshuffle_bytes\trows_out")
        tr.spans.foreach { s =>
          val c = cost(s.id)
          out.println(Seq(s.id, s.parent, s.name, s.tick, (s.startNs - t0) / 1e6, (s.endNs - t0) / 1e6,
            c.jobs, c.tasks, c.taskMs, c.busyMs, c.shuffleBytes, s.rowsOut).mkString("\t"))
        }
      } finally out.close()
      log(s"spans written to $f")
    }

  val LayerSpans: Seq[String] = Seq(
    "relational.step", "relational.emit", "agg_sum.step", "agg_sum.emit",
    "agg_min.step", "agg_min.emit", "nested.step", "nested.emit")

  /** Per-tick means over the measured ticks of every per-layer metric. */
  def layerMetrics(tr: Tracer, l: SpanListener, c: Map[String, Double], n: Int, tracedP50: Double)
      : Seq[(String, Double, String)] = {
    val spans = tr.spans.toSeq
    val cost = l.costs(spans)
    val perSpan = LayerSpans.flatMap { name =>
      val ss = spans.filter(_.name == name)
      val cs = ss.map(s => cost(s.id))
      def mean(x: Double) = x / n
      val base = Seq(
        (s"$name.ms", mean(ss.map(_.ms).sum), "ms"),
        (s"$name.jobs", mean(cs.map(_.jobs).sum), "count"),
        (s"$name.tasks", mean(cs.map(_.tasks).sum), "count"),
        (s"$name.task_ms", mean(cs.map(_.taskMs).sum), "ms"),
        (s"$name.driver_ms", mean(ss.map(_.ms).sum - cs.map(_.busyMs).sum), "ms"),
        (s"$name.shuffle_mb", mean(cs.map(_.shuffleBytes).sum / 1e6), "MB"))
      if (name.endsWith(".emit")) base :+ ((s"$name.rows_out", mean(ss.map(_.rowsOut).sum), "count"))
      else base
    }
    val all = cost.values
    val ticks = spans.filter(_.name == "tick")
    val ckpt = l.checkpointJobsIn(spans.map(_.id).toSet)
    val inner = c.getOrElse("nested.inner_iterations", 0.0)
    perSpan ++ Seq(
      ("spark.jobs_per_tick", all.map(_.jobs).sum.toDouble / n, "count"),
      ("spark.tasks_per_tick", all.map(_.tasks).sum.toDouble / n, "count"),
      ("spark.task_ms_per_tick", all.map(_.taskMs).sum / n, "ms"),
      ("spark.driver_ms_per_tick", (ticks.map(_.ms).sum - all.map(_.busyMs).sum) / n, "ms"),
      ("spark.shuffle_mb_per_tick", all.map(_.shuffleBytes).sum / 1e6 / n, "MB"),
      ("zset.compact_jobs", ckpt.getOrElse("zset", 0).toDouble / n, "count"),
      ("agg.checkpoint_jobs", ckpt.getOrElse("agg", 0).toDouble / n, "count"),
      ("nested.inner_iterations", inner / n, "count"),
      ("nested.delta_tuples", c.getOrElse("nested.delta_tuples", 0.0) / n, "count"),
      ("nested.productive_iter_ratio",
        if (inner == 0) 0.0 else c.getOrElse("nested.productive_iterations", 0.0) / inner, "ratio"),
      // Tracing overhead: this minus tick_p50_ms of an untraced run, same seed.
      ("trace.tick_p50_ms", tracedP50, "ms"),
      ("trace.listener_ms_per_tick", l.busyNs / 1e6 / n, "ms"))
  }
}
