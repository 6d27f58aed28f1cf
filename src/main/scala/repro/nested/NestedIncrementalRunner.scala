package repro.nested

import scala.collection.mutable

import repro.recursive.Fixpoint
import repro.relational.{Eval, ZExpr}
import repro.zset.ZSet

/** Per-update statistics of a nested incremental circuit (experiment E5):
  * inner iterations run, and the loop's output delta size in each.
  */
final case class IncTcStats(innerIterations: Int, deltaSizesPerIteration: Seq[Long]) {
  def totalDelta: Long = deltaSizesPerIteration.sum
}

/** The incrementally maintained recursive query `R = distinct(body(I…, R))`
  * — the §6 construction, the nested analogue of
  * [[repro.relational.IncrementalRunner]] and the incremental counterpart of
  * [[Fixpoint.semiNaive]], taking the same `body`.
  *
  * Outer time = input transactions (one `step` each); inner time = fixpoint
  * iterations. The circuit is
  * {{{
  *   ΔI → ↑δ₀ → [ (↑(↑distinct ∘ body)^Δ)^Δ with ↑z⁻¹ feedback into "R" ] → ↑∫ → ΔR
  * }}}
  * where the loop body is rewritten node by node, as mechanically as
  * Algorithm 4.8: ⋈/× become [[NestedIncrementalBilinear]] (the 4-term
  * form), distinct becomes [[NestedIncrementalDistinct]], and linear nodes
  * pass deltas through unchanged at both levels. Each `step` costs work
  * proportional to the change sizes flowing through the loop, not to the
  * relation sizes — the §6.2 claim measured by experiment E5.
  *
  * `body` reads the recursive relation as `ZInput("R")`, as every body
  * in `repro.recursive` does; `recEmpty` is that relation's empty Z-set.
  */
class NestedIncrementalRunner(
    body: ZExpr,
    recEmpty: ZSet,
    maxIter: Int = Fixpoint.DefaultMaxIter) {
  private val circuit = ZExpr.ZDistinct(body)
  private val bilinears = mutable.Map.empty[ZExpr, NestedIncrementalBilinear[ZSet, ZSet, ZSet]]
  private val distincts = mutable.Map.empty[ZExpr, NestedIncrementalDistinct]
  // Inner iterations of the longest previous transaction: up to there an
  // outer-integrated operand can still be non-zero.
  private var prevIters = 0

  private def group(z: ZSet) = ZSet.group(z.spark, z.dataSchema)

  /** Apply one transaction (a change per input); returns the view change
    * ΔR = ↑∫(loop output) and the loop's statistics.
    */
  def step(inputs: Map[String, ZSet]): (ZSet, IncTcStats) = {
    bilinears.values.foreach(_.newOuterTick())
    distincts.values.foreach(_.newOuterTick())
    val empties = inputs.map { case (n, z) => n -> ZSet.empty(z.spark, z.dataSchema) }
    val sizes = mutable.Buffer.empty[Long]
    var fb = recEmpty    // ↑z⁻¹(o): inner-delayed loop output
    var total = recEmpty // ↑∫: sum of the loop's output deltas this tick
    var t2 = 0
    var done = false
    while (!done) {
      require(t2 < maxIter, s"nested incremental: no convergence after $maxIter iterations")
      val distinctIns = mutable.Buffer.empty[ZSet]
      val dIn = if (t2 == 0) inputs else empties // ↑δ₀ of each outer delta stream
      val out = Eval.fold(circuit, dIn + ("R" -> fb))(
        (node, a, b, times) => bilinears.getOrElseUpdate(node,
          new NestedIncrementalBilinear(times)(group(a), group(b), group(times(a, b))))
          .step(a, b),
        (node, d) => {
          val dc = d.compact()
          distinctIns += dc
          distincts.getOrElseUpdate(node, new NestedIncrementalDistinct()(group(dc))).step(dc)
        }).compact()
      // Every count was recorded by `compact()`: the test runs no job.
      val size = out.entryCount
      sizes += size
      total = total.plus(out)
      fb = out
      t2 += 1
      done = t2 >= prevIters && size == 0 && distinctIns.forall(_.isEmpty)
    }
    prevIters = math.max(prevIters, t2)
    (total.consolidate(), IncTcStats(t2, sizes.toSeq))
  }
}
