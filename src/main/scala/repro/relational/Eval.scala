package repro.relational

import scala.collection.mutable

import org.apache.spark.sql.functions.expr

import repro.core.{IncrementalBilinear, IncrementalDistinct}
import repro.zset.ZSet

import ZExpr._

/** The one evaluator of a Z-set circuit: a fold over the `ZExpr` tree that
  * computes the linear nodes (σ, π/map, −, +) itself and hands each bilinear
  * node (⋈, ×) and each distinct to the caller. Batch, incremental and
  * nested evaluation differ only in those two handlers — which is exactly
  * what Algorithm 4.8 step 5 and its §6 nested analogue rewrite.
  *
  * Structurally identical subtrees are evaluated once per call, so a handler
  * that keeps per-node state (keyed by the node) shares one operator between
  * them, mirroring common-subexpression sharing in the circuit diagram.
  */
object Eval {

  /** Evaluate `e` over `inputs`. `bilinear` gets a ⋈/× node, its evaluated
    * operands and the node's product on Z-sets; `distinct` gets a distinct
    * node and its evaluated input.
    */
  def fold(e: ZExpr, inputs: Map[String, ZSet])(
      bilinear: (ZExpr, ZSet, ZSet, (ZSet, ZSet) => ZSet) => ZSet,
      distinct: (ZExpr, ZSet) => ZSet): ZSet = {
    val memo = mutable.Map.empty[ZExpr, ZSet]
    def go(e: ZExpr): ZSet = memo.getOrElseUpdate(e, e match {
      case ZInput(n)      => inputs.getOrElse(n, sys.error(s"missing input $n"))
      case ZFilter(in, p) => go(in).filterZ(expr(p))
      case ZMap(in, es)   => go(in).mapRows(es: _*)
      case ZNeg(in)       => go(in).negate
      case ZSum(a, b)     => go(a).plus(go(b))
      case ZJoin(a, b, k) => bilinear(e, go(a), go(b), (x, y) => x.join(y, joinKeys(x, y, k)))
      case ZCross(a, b)   => bilinear(e, go(a), go(b), _ cartesian _)
      case ZDistinct(in)  => distinct(e, go(in))
    })
    go(e)
  }

  /** Resolve intersect's "join on all columns" encoding (empty key list). */
  private def joinKeys(a: ZSet, b: ZSet, keys: Seq[String]): Seq[String] =
    if (keys.nonEmpty) keys
    else {
      val shared = a.dataCols.filter(b.dataCols.contains)
      require(shared.nonEmpty, "join-on-all with no shared columns")
      shared
    }
}

/** Non-incremental ("scalar") evaluation of a Z-set circuit on one database
  * snapshot — the circuits of Table 1 before lifting.
  */
object BatchEval {
  def eval(e: ZExpr, inputs: Map[String, ZSet]): ZSet =
    Eval.fold(e, inputs)((_, a, b, times) => times(a, b), (_, z) => z.distinctZ)
}

/** A circuit runner: one tick per call, inputs and output are Z-sets.
  * For an incremental runner the values are *changes*; for a lifted runner
  * they are full snapshots.
  */
trait Runner {
  def step(inputs: Map[String, ZSet]): ZSet
}

/** Algorithm 4.8 steps 3–5: the lifted, incrementalized circuit, with the
  * chain rule applied so every node computes directly on changes —
  *
  *  - linear nodes (σ, π/map, +, −) run unchanged (Theorem 3.3),
  *  - ⋈/× become [[IncrementalBilinear]] (Theorem 3.4),
  *  - distinct becomes [[IncrementalDistinct]] (Proposition 4.7).
  */
final class IncrementalRunner(circuit: ZExpr) extends Runner {
  private val bilinears = mutable.Map.empty[ZExpr, IncrementalBilinear]
  private val distincts = mutable.Map.empty[ZExpr, IncrementalDistinct]

  def step(inputs: Map[String, ZSet]): ZSet =
    Eval.fold(circuit, inputs)(
      (node, a, b, times) => bilinears.getOrElseUpdate(node, new IncrementalBilinear(times)).step(a, b),
      (node, d) => distincts.getOrElseUpdate(node, new IncrementalDistinct).step(d))
}

/** Algorithm 4.8 stopped after step 4: the lifted circuit surrounded by I
  * and D but *not* rewritten internally — it reconstitutes full snapshots
  * and re-evaluates the whole query every tick. This is the paper's O(R[t])
  * baseline against which incremental circuits are measured (§4.5).
  */
final class NaiveLiftedRunner(circuit: ZExpr) extends Runner {
  private val integrals = mutable.Map.empty[String, ZSet]
  private var prevOut: Option[ZSet] = None

  def step(inputs: Map[String, ZSet]): ZSet = {
    val snap = inputs.map { case (n, d) =>
      val acc = integrals.get(n).map(_.plus(d)).getOrElse(d).compact()
      integrals(n) = acc
      n -> acc
    }
    val out = BatchEval.eval(circuit, snap)
    val delta = prevOut match {
      case Some(p) => out.minus(p)
      case None    => out
    }
    prevOut = Some(out.compact())
    delta
  }
}

/** Algorithm 4.8, end to end: translate (Table 1) → consolidate distincts
  * (Props 4.5/4.6) → lift + incrementalize + chain rule.
  */
object Incrementalizer {
  def circuitOf(q: Rel): ZExpr = DistinctOptimizer.optimize(Table1.translate(q))

  /** The maintained incremental circuit for a relational (set) query. */
  def incremental(q: Rel): IncrementalRunner = new IncrementalRunner(circuitOf(q))

  /** The unoptimized lifted baseline for the same query. */
  def naive(q: Rel): NaiveLiftedRunner = new NaiveLiftedRunner(circuitOf(q))

  /** Batch (one-snapshot) evaluation of the same circuit. */
  def batch(q: Rel, inputs: Map[String, ZSet]): ZSet =
    BatchEval.eval(circuitOf(q), inputs)
}
