package repro.agg

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

import repro.circuit.Op
import repro.zset.{Accumulator, ZSet}

/** Aggregation functions over Z-sets (§7.2). COUNT and SUM are *linear*
  * maps from Z[A] into the result group; MIN is not (deletions may need the
  * full set), so its incremental form is brute force over the stored
  * integral — exactly the paper's distinction.
  */
sealed trait AggFunc { def alias: String }
object AggFunc {
  /** a_COUNT(s) = Σ_x s[x] — linear. */
  final case class Count(alias: String = "cnt") extends AggFunc
  /** a_SUM(s) = Σ_x x·s[x] — linear. */
  final case class Sum(col: String, alias: String = "total") extends AggFunc
  /** AVG = SUM/COUNT of a linear pair, divided at output (§7.2's circuit). */
  final case class Avg(col: String, alias: String = "avg") extends AggFunc
  /** MIN — non-linear, incremental only by brute force (§7.2). */
  final case class Min(col: String, alias: String = "mn") extends AggFunc
}

/** GROUP BY-AGGREGATE (§7.4) over the flat encoding of indexed Z-sets
  * (§7.3): the grouping function G_p is the linear operator that tags each
  * tuple with its key columns, so a grouping is just the set of tuples
  * sharing a key.
  */
object GroupAggregate {

  /** Weighted accumulator columns for the linear part of an aggregate. */
  private[agg] def accExprs(f: AggFunc): Seq[Column] = {
    val w = col(ZSet.W)
    f match {
      case AggFunc.Count(_)   => Seq(sum(w) as "__cnt")
      case AggFunc.Sum(c, _)  => Seq(sum(w) as "__cnt", sum(col(c).cast("double") * w) as "__sm")
      case AggFunc.Avg(c, _)  => Seq(sum(w) as "__cnt", sum(col(c).cast("double") * w) as "__sm")
      case AggFunc.Min(c, _)  => Seq(sum(w) as "__cnt", min(when(w > 0, col(c))) as "__mn")
    }
  }

  /** Render the output value column from the accumulators. */
  private[agg] def render(f: AggFunc): Column = f match {
    case AggFunc.Count(_)  => col("__cnt")
    case AggFunc.Sum(_, _) => col("__sm")
    case AggFunc.Avg(_, _) => col("__sm") / col("__cnt")
    case AggFunc.Min(_, _) => col("__mn")
  }

  /** Batch reference: `SELECT keys, f FROM z GROUP BY keys` as a Z-set view
    * (weight 1 per group; empty groups absent). Requires positive input for
    * MIN (set/bag semantics), like SQL.
    */
  def batch(z: ZSet, keys: Seq[String], f: AggFunc): ZSet = {
    val c = z.consolidate().df
    val grouped = c.groupBy(keys.map(col): _*).agg(accExprs(f).head, accExprs(f).tail: _*)
    val rows = grouped
      .where(col("__cnt") =!= 0)
      .select((keys.map(col) :+ (render(f) as f.alias)): _*)
    ZSet.fromSet(rows)
  }
}

/** The incremental GROUP BY-AGGREGATE operator: per tick it aggregates only
  * the *change*, merges it into per-group accumulator state, and emits the
  * view delta (retraction of the old group row + assertion of the new one)
  * for *groupings that changed* — §7.4's "partly incremental" evaluation.
  *
  * For linear aggregates (COUNT/SUM/AVG) the state is one accumulator row
  * per group, kept as an append-only Z-set: a group's row is replaced by
  * adding the retraction of the old row and the new row. For MIN the full
  * input integral is kept and the touched groups' minima recomputed from it
  * — the paper's brute-force fallback. Either way a group's view row is the
  * rendering of its accumulators, so the old rows to retract are rendered
  * from the old accumulators and no copy of the view is kept.
  *
  * With no `keys` this is a global aggregate (§7.2's linear aggregation
  * followed by `makeset`): one group under a constant key that the output
  * leaves out, so the view is a singleton of the aggregate's value.
  */
final class IncrementalGroupAggregate(keys: Seq[String], f: AggFunc)
    extends Op[ZSet, ZSet] {

  // Accumulator rows per group (linear), or the input integral (MIN).
  private var state: Option[Accumulator] = None

  private val groupKeys = if (keys.isEmpty) Seq("__global") else keys
  private val keyCols = groupKeys.map(col)
  private val accExprs = GroupAggregate.accExprs(f)

  private def stateLike(z: ZSet): Accumulator =
    state.getOrElse { val a = Accumulator.empty(z.spark, z.dataSchema); state = Some(a); a }

  /** Per-group accumulator rows of `z` (weight 1 each). */
  private def aggregate(z: ZSet, exprs: Seq[Column]): ZSet =
    ZSet.derived(
      z.df.groupBy(keyCols: _*).agg(exprs.head, exprs.tail: _*).withColumn(ZSet.W, lit(1L)), z)

  /** The view rows of the given accumulator rows: one per non-empty group. */
  private def rows(accs: ZSet): ZSet =
    ZSet.derived(
      accs.df
        .where(col("__cnt") =!= 0)
        .select((keys.map(col) :+ (GroupAggregate.render(f) as f.alias)): _*)
        .withColumn(ZSet.W, lit(1L)),
      accs)

  def step(change: ZSet): ZSet = {
    val d =
      if (keys.nonEmpty) change
      else ZSet.derived(change.df.withColumn(groupKeys.head, lit(0)), change)
    // One aggregation of the change gives both the per-group delta and the
    // touched-key set (its key column is already unique).
    val dAgg = aggregate(d, accExprs).compact()
    val touched = dAgg.project(groupKeys: _*)

    // Accumulator rows of the touched groups, before and after the change.
    val (before, after) = f match {
      case _: AggFunc.Min =>
        // Recompute from the integral, restricted to the touched keys first
        // (≈ indexed lookup).
        val integral = stateLike(d)
        val old = integral.value.restrictTo(touched)
        integral.add(d)
        (aggregate(old.consolidate(), accExprs), aggregate(old.plus(d).consolidate(), accExprs))
      case _ =>
        val accs = stateLike(dAgg)
        val old = accs.value.restrictTo(touched).consolidate()
        val next = aggregate(old.plus(dAgg), sumAccs()).filterZ(col("__cnt") =!= 0)
        accs.add(next.minus(old))
        (old, next)
    }
    rows(after).minus(rows(before)).compact()
  }

  /** Re-aggregation of accumulator rows: each accumulator column sums. */
  private def sumAccs(): Seq[Column] = f match {
    case AggFunc.Count(_) => Seq(sum(col("__cnt")) as "__cnt")
    case _                => Seq(sum(col("__cnt")) as "__cnt", sum(col("__sm")) as "__sm")
  }
}
