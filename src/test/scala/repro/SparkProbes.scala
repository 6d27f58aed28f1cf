package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{Exchange, ReusedExchangeExec}

/** What Spark did to run a piece of code: jobs started and exchanges planned. */
trait SparkProbes extends AdaptiveSparkPlanHelper { self: SparkSpec =>

  /** Shuffle and broadcast exchanges in `df`'s physical plan (adaptive
    * plans included).
    */
  def exchangesIn(df: DataFrame): Seq[String] =
    collectWithSubqueries(df.queryExecution.executedPlan) {
      case e: Exchange           => e.nodeName
      case r: ReusedExchangeExec => r.nodeName
    }

  /** Number of Spark jobs `body` starts. A marker job before and after
    * `body` brackets its job-start events: the listener bus delivers events
    * in order, so once the second marker is seen every job of `body` has
    * been counted.
    */
  def jobsDuring(body: => Unit): Int = {
    val sc = spark.sparkContext
    val key = "repro.probe.marker"
    val started = new CountDownLatch(1)
    val finished = new CountDownLatch(1)
    @volatile var jobs = 0
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))) match {
          case Some("start")                    => started.countDown()
          case Some("end")                      => finished.countDown()
          case _ if started.getCount == 0 && finished.getCount == 1 => jobs += 1
          case _                                =>
        }
    }
    def marker(which: String): Unit = {
      sc.setLocalProperty(key, which)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(key, null)
    }
    sc.addSparkListener(listener)
    try {
      marker("start")
      assert(started.await(60, TimeUnit.SECONDS), "start marker job not seen")
      body
      marker("end")
      assert(finished.await(60, TimeUnit.SECONDS), "end marker job not seen")
      jobs
    } finally sc.removeSparkListener(listener)
  }
}
