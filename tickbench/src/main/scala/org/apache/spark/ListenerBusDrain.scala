package org.apache.spark

/** Waits until every event posted so far has reached the listeners; the
  * listener bus is package-private, so this lives in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
