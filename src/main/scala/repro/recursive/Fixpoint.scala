package repro.recursive

import scala.collection.mutable

import repro.relational.{BatchEval, IncrementalRunner, ZExpr}
import repro.zset.ZSet

/** Per-run fixpoint statistics: the work metrics behind the naïve vs
  * semi-naïve comparison (§5.1 / experiment E4).
  *
  * @param iterations          number of loop iterations until the fixpoint
  * @param workPerIteration    tuples produced by the loop body per iteration
  *                            (full relation for naïve, delta for semi-naïve)
  */
final case class FixpointStats(iterations: Int, workPerIteration: Seq[Long]) {
  def totalWork: Long = workPerIteration.sum
}

/** Fixpoint evaluation of recursive queries (§5). A recursive query is an
  * equation `R = distinct(body(I₁…Iₘ, R))` with `body` a non-recursive Z-set
  * circuit over the input relations and the recursive relation `recName`.
  */
object Fixpoint {

  val DefaultMaxIter = 10000

  /** Naïve evaluation (the circuit of Theorem 5.4, Algorithm 1 of [11]):
    * iterate `x ← S(x)` with `S(x) = distinct(body(I…, x))` until `x` stops
    * changing. Each iteration re-derives *all* facts.
    */
  def naive(
      body: ZExpr,
      inputs: Map[String, ZSet],
      recEmpty: ZSet,
      recName: String = "R",
      maxIter: Int = DefaultMaxIter): (ZSet, FixpointStats) = {
    val work = mutable.Buffer.empty[Long]
    var x = recEmpty
    var iter = 0
    var done = false
    while (!done) {
      require(iter < maxIter, s"naive: no fixpoint after $maxIter iterations")
      val next = BatchEval
        .eval(body, inputs + (recName -> x))
        .distinctZ
        .compact()
      val size = next.entryCount
      work += size
      // Entry counts are recorded by `compact()`: only an iteration that
      // kept the size runs the equality job.
      done = size == x.entryCount && next.minus(x).isEmpty
      x = next
      iter += 1
    }
    (x, FixpointStats(iter, work.toSeq))
  }

  /** Semi-naïve evaluation (circuit 5.1, Algorithm 2 of [11]): the loop body
    * is the *incrementalized* circuit `(↑distinct ∘ ↑body)^Δ` with a z⁻¹
    * feedback edge; the inputs enter as δ₀(Iₖ) (only at iteration 0) and the
    * per-iteration output deltas are accumulated by ∫, stopping at the first
    * zero delta. Correctness is the cycle rule of Proposition 3.2.
    *
    * `body` must NOT be wrapped in a top-level distinct — it is added here,
    * mirroring the `distinct ∘ R` composition called T in §6.
    */
  def semiNaive(
      body: ZExpr,
      inputs: Map[String, ZSet],
      recEmpty: ZSet,
      recName: String = "R",
      maxIter: Int = DefaultMaxIter): (ZSet, FixpointStats) = {
    val runner = new IncrementalRunner(ZExpr.ZDistinct(body))
    val empties = inputs.map { case (n, z) => n -> ZSet.empty(z.spark, z.dataSchema) }
    val work = mutable.Buffer.empty[Long]
    var acc = recEmpty            // ∫ of the output deltas
    var delta = recEmpty          // z⁻¹ feedback: previous output delta
    var iter = 0
    var done = false
    while (!done) {
      require(iter < maxIter, s"semiNaive: no fixpoint after $maxIter iterations")
      val dIn = if (iter == 0) inputs else empties // δ₀ of each input
      val out = runner
        .step(dIn + (recName -> delta))
        .compact()
      val size = out.entryCount
      work += size
      done = size == 0
      if (!done) acc = acc.plus(out).compact()
      delta = out
      iter += 1
    }
    (acc, FixpointStats(iter, work.toSeq))
  }
}
