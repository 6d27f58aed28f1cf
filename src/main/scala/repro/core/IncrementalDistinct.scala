package repro.core

import org.apache.spark.sql.functions._

import repro.circuit.Op
import repro.zset.{Accumulator, ZSet}

/** The efficient incremental distinct of Proposition 4.7.
  *
  * {{{
  *   (↑distinct)^Δ(d)[t] = H(i, d)    where  i = z⁻¹(I(d))
  *   H(i, d)[x] = -1  if i[x] > 0 and (i+d)[x] ≤ 0
  *                 1  if i[x] ≤ 0 and (i+d)[x] > 0
  *                 0  otherwise
  * }}}
  * Only multiplicities of tuples present in the change `d` can flip sign, so
  * the evaluation restricts the stored integral to d's support
  * (`ZSet.restrictTo` — the indexed-lookup analogue) before aggregating; the
  * state is maintained append-only. Time O(|d|) per tick (plus the
  * unavoidable state scan), space O(R) — exactly §4.5's accounting.
  */
final class IncrementalDistinct extends Op[ZSet, ZSet] {
  private var acc: Option[Accumulator] = None // z⁻¹(I(d))

  /** Bootstrap the stored integral with a pre-integrated relation (the bulk
    * tick's output is discarded). Must be called before the first `step`.
    */
  def seed(initial: ZSet): Unit = {
    require(acc.isEmpty, "seed after step")
    acc = Some(Accumulator.of(initial.compact()))
  }

  def step(d: ZSet): ZSet = {
    val a = acc.getOrElse {
      val x = Accumulator.empty(d.spark, d.dataSchema); acc = Some(x); x
    }
    val dc = d.compact()
    val out = IncrementalDistinct.h(a.value, dc)
    a.add(dc)
    out
  }
}

object IncrementalDistinct {
  /** The H function of Proposition 4.7, evaluated only on the support of `d`:
    * the integral is first restricted to d's tuples, then one aggregation
    * over that restriction and `d` gives each tuple's old and new
    * multiplicity, which decide the sign flips.
    */
  def h(i: ZSet, d: ZSet): ZSet = {
    val W = ZSet.W
    val dc = d.consolidate()
    val keys = dc.dataCols.map(col)
    val old = i.restrictTo(dc.support)
    val both = old.df.select(keys :+ (col(W) as "__wi") :+ (lit(0L) as "__wd"): _*)
      .unionByName(dc.df.select(keys :+ (lit(0L) as "__wi") :+ (col(W) as "__wd"): _*))
      .groupBy(keys: _*)
      .agg(sum("__wi") as "__wi", sum("__wd") as "__wd")
    val wOld = col("__wi")
    val wNew = wOld + col("__wd")
    val hWeight = when(wOld > 0 && wNew <= 0, -1L)
      .when(wOld <= 0 && wNew > 0, 1L)
      .otherwise(0L)
    ZSet.derived(
      both.withColumn(W, hWeight).drop("__wi", "__wd").where(col(W) =!= 0),
      old, dc)
  }
}
