package repro.nested

import org.apache.spark.sql.SparkSession

import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** The incrementally maintained transitive closure — the final circuit of
  * §6.1 (Figure 2): [[NestedIncrementalRunner]] over
  * [[TransitiveClosure.body]], one edge change ΔE per transaction.
  */
final class IncrementalTransitiveClosure(spark: SparkSession)
    extends NestedIncrementalRunner(TransitiveClosure.body, TransitiveClosure.emptyR(spark)) {

  /** Apply one transaction ΔE; returns the view change ΔR. */
  def step(deltaE: ZSet): (ZSet, IncTcStats) = step(Map("E" -> deltaE))
}
