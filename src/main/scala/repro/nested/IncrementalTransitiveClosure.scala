package repro.nested

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.types._

import repro.algebra.Group
import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** Per-update statistics for the incremental recursive query (experiment E5). */
final case class IncTcStats(innerIterations: Int, deltaSizesPerIteration: Seq[Long]) {
  def totalDelta: Long = deltaSizesPerIteration.sum
}

/** The incrementally-maintained transitive closure — the final circuit of
  * §6.1 (Figure 2).
  *
  * Outer time = input transactions (one ΔE per `step`); inner time = fixpoint
  * iterations. The circuit is
  * {{{
  *   ΔE → ↑δ₀ → [ base maps + π((↑(↑⋈)^Δ)^Δ(E', ↑z⁻¹(o))) → (↑(↑distinct)^Δ)^Δ ] → ↑∫ → ΔR
  * }}}
  * where the loop body uses [[NestedIncrementalBilinear]] (the 4-term join)
  * and [[NestedIncrementalDistinct]]; the linear base-rule maps pass deltas
  * through unchanged at both levels. Each `step` costs work proportional to
  * the change sizes flowing through the loop, not to |E| or |R| — the §6.2
  * claim measured by experiment E5.
  */
final class IncrementalTransitiveClosure(spark: SparkSession, maxIter: Int = 500) {
  private val eJoinSchema = StructType(Seq(
    StructField("h", LongType, nullable = false),
    StructField("s", LongType, nullable = false)))

  private implicit val gE: Group[ZSet] = ZSet.group(spark, eJoinSchema)
  private val gR: Group[ZSet] = ZSet.group(spark, TransitiveClosure.rSchema)
  // Join output carries (s, h, u) before the final projection.
  private val joinOutSchema = StructType(Seq(
    StructField("s", LongType, nullable = false),
    StructField("h", LongType, nullable = false),
    StructField("u", LongType, nullable = false)))
  private val gJ: Group[ZSet] = ZSet.group(spark, joinOutSchema)

  private val join =
    new NestedIncrementalBilinear[ZSet, ZSet, ZSet]((a, b) => a.join(b, Seq("s")))(gE, gR, gJ)
  private val dist = new NestedIncrementalDistinct()(gR)

  private var prevMaxIter = 0

  private def emptyE = TransitiveClosure.emptyE(spark)
  private def emptyR = TransitiveClosure.emptyR(spark)

  /** Apply one transaction ΔE; returns the view change ΔR = ↑∫(loop output). */
  def step(deltaE: ZSet): (ZSet, IncTcStats) = {
    join.newOuterTick()
    dist.newOuterTick()

    val sizes = mutable.Buffer.empty[Long]
    var fb = emptyR        // ↑z⁻¹(o): inner-delayed loop output
    var total = emptyR     // ↑∫: sum of the loop's output deltas this tick
    var t2 = 0
    var done = false
    while (!done) {
      require(t2 < maxIter, s"incremental TC: no convergence after $maxIter iterations")
      val eIn = if (t2 == 0) deltaE else emptyE // ↑δ₀ of the outer delta stream
      // Base rules (linear ⇒ unchanged at both levels).
      val base = eIn.mapRows("h AS s", "h AS u")
        .plus(eIn.mapRows("t AS s", "t AS u"))
        .plus(eIn.mapRows("h AS s", "t AS u"))
      // Recursive rule: π_{h→s, u}((E(h,s)) ⋈_s R(s,u)) via the nested join.
      val j = join.step(eIn.mapRows("h", "t AS s"), fb)
      val pre = base.plus(j.mapRows("h AS s", "u")).compact()
      val out = dist.step(pre).compact()
      // Both counts were recorded by `compact()`: the test runs no job.
      val size = out.entryCount
      sizes += size
      total = total.plus(out)
      fb = out
      t2 += 1
      done = t2 >= prevMaxIter && size == 0 && pre.isEmpty
    }
    prevMaxIter = math.max(prevMaxIter, t2)
    (total.consolidate(), IncTcStats(t2, sizes.toSeq))
  }
}
