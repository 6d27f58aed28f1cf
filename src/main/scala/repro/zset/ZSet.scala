package repro.zset

import org.apache.spark.network.util.JavaUtils
import org.apache.spark.sql.{CheckpointScan, Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.algebra.Group

/** A Z-set over rows (§4.1 of the paper): a function with finite support from
  * tuples to integer multiplicities, embedded in Spark as a DataFrame whose
  * columns are the tuple's data columns plus one `__w: long` weight column.
  *
  * Invariant: the *meaning* of a `ZSet` is its consolidated form (one row per
  * distinct tuple, non-zero weight). For performance the underlying DataFrame
  * may be unconsolidated (the same tuple split across rows whose weights sum);
  * `consolidate()` normalizes, and every observation (`isEmpty`, `entries`,
  * `zequals`, aggregation) consolidates first. All transformations here are
  * plain DataFrame combinators, so each one is planned and executed by
  * Catalyst.
  *
  * Two facts ride along with the DataFrame so that change-sized work runs as
  * few Spark jobs as possible:
  *  - `knownRows`: the consolidated entry count, recorded by `compact()` (and
  *    0 for `ZSet.empty`). It answers `isEmpty`/`entryCount` without a job,
  *    and a known-empty operand of `plus` or `join` is elided.
  *  - `isSinglePartition`: the plan is one partition that Catalyst sees as
  *    `SinglePartition`, so consolidations, unions and equi-joins over such
  *    Z-sets plan no `Exchange`.
  */
final class ZSet private (
    val df: DataFrame,
    private val knownRows: Option[Long] = None,
    val isSinglePartition: Boolean = false,
    private val broadcastMe: Boolean = false)
    extends Serializable {
  import ZSet.W

  def spark: SparkSession = df.sparkSession

  /** Data columns, in DataFrame order (weight column excluded). */
  val dataCols: Seq[String] = df.columns.filterNot(_ == W).toSeq

  /** Schema of the data columns only. */
  def dataSchema: StructType = StructType(df.schema.fields.filterNot(_.name == W))

  private def requireSameCols(that: ZSet, op: String): Unit =
    require(
      dataCols.sorted == that.dataCols.sorted,
      s"$op: schema mismatch: $dataCols vs ${that.dataCols}")

  /** Statically empty: `ZSet.empty`, a compacted Z-set with no entries, or a
    * linear image of one. Such a Z-set's DataFrame has no rows.
    */
  private def knownEmpty: Boolean = knownRows.contains(0L)

  /** A Z-set computed from this one by a row-local transformation: it keeps
    * the partitioning, and stays known-empty if this one was.
    */
  private def derive(out: DataFrame): ZSet =
    new ZSet(out, if (knownEmpty) Some(0L) else None, isSinglePartition)

  /** The same Z-set with its data columns in the given order. */
  private def inOrder(cols: Seq[String]): ZSet =
    if (cols == dataCols) this
    else new ZSet(df.select((cols :+ W).map(col): _*), knownRows, isSinglePartition)

  // ---------------------------------------------------------------- group ops

  /** Z-set addition (pointwise weight sum). Lazy: does not consolidate. A
    * known-empty operand is dropped, so no union is planned for it.
    */
  def plus(that: ZSet): ZSet = {
    requireSameCols(that, "plus")
    if (that.knownEmpty) this
    else if (knownEmpty) that.inOrder(dataCols)
    else {
      val ordered = that.df.select((dataCols :+ W).map(col): _*)
      new ZSet(df.select((dataCols :+ W).map(col): _*).unionByName(ordered),
        isSinglePartition = isSinglePartition && that.isSinglePartition)
    }
  }

  /** Z-set negation (weights flipped). Keeps the entry count. */
  def negate: ZSet = new ZSet(df.withColumn(W, -col(W)), knownRows, isSinglePartition)

  def minus(that: ZSet): ZSet = plus(that.negate)

  /** Multiply every weight by a constant. */
  def scale(k: Long): ZSet =
    if (k == 0) ZSet.empty(spark, dataSchema)
    else new ZSet(df.withColumn(W, col(W) * lit(k)), knownRows, isSinglePartition)

  /** One row per distinct tuple, weights summed, zero-weight tuples dropped. */
  def consolidate(): ZSet =
    if (knownRows.isDefined) this // compacted, hence already consolidated
    else if (dataCols.isEmpty) {
      // Degenerate nullary relation: a single abstract tuple with a net weight.
      derive(df.agg(sum(W) as W).where(col(W) =!= 0))
    } else {
      derive(
        df.groupBy(dataCols.map(col): _*)
          .agg(sum(W) as W)
          .where(col(W) =!= 0))
    }

  // --------------------------------------------------------- set-like operators

  /** `distinct` (Definition 4.3): multiplicity 1 where positive, else absent. */
  def distinctZ: ZSet = {
    val c = consolidate()
    c.derive(c.df.where(col(W) > 0).withColumn(W, lit(1L)))
  }

  /** The support of the consolidated Z-set with weight 1 per tuple: the key
    * set that `restrictTo` probes with. Keeps the entry count.
    */
  def support: ZSet = {
    val c = consolidate()
    new ZSet(c.df.withColumn(W, lit(1L)), c.knownRows, c.isSinglePartition)
  }

  /** Selection σ: keep tuples satisfying `cond` (a predicate on data columns). */
  def filterZ(cond: Column): ZSet = derive(df.where(cond))

  /** Projection π onto a subset of columns; weights of merged tuples add. */
  def project(cols: String*): ZSet = derive(df.select((cols :+ W).map(col): _*))

  /** Generalized map: SQL projection expressions ("expr AS alias").
    * Linear in the Z-set (weights carried through and summed on collision).
    */
  def mapRows(sqlExprs: String*): ZSet = derive(df.selectExpr(sqlExprs :+ W: _*))

  /** Equi-join on shared key columns; weights multiply (bilinear, Thm 3.4's ⋈).
    * Non-key data columns of the two sides must be disjoint.
    */
  def join(that: ZSet, keys: Seq[String]): ZSet = {
    require(keys.nonEmpty, "join: empty key list — use cartesian")
    val clash = (dataCols.toSet -- keys).intersect(that.dataCols.toSet -- keys)
    require(clash.isEmpty, s"join: non-key column clash: $clash")
    bilinear(that)((l, r) => l.join(r, keys))
  }

  /** Cartesian product ×; weights multiply. Column names must be disjoint. */
  def cartesian(that: ZSet): ZSet = {
    val clash = dataCols.toSet.intersect(that.dataCols.toSet)
    require(clash.isEmpty, s"cartesian: column clash: $clash")
    bilinear(that)(_ crossJoin _)
  }

  /** The rows of this Z-set whose `keys.dataCols` appear in `keys`, a
    * set-like Z-set such as a `support` (semi-join as a bilinear product with
    * weights 1). The key set is broadcast unless both sides are one
    * partition. The result is treated as change-sized: when the key set is
    * one partition, so is the result. A multi-partition Z-set is still
    * probed in parallel; only the matching rows are shuffled into one
    * partition.
    */
  def restrictTo(keys: ZSet): ZSet = {
    val r = join(keys.broadcastHint, keys.dataCols)
    if (r.isSinglePartition || !keys.isSinglePartition) r
    else new ZSet(r.df.repartition(1), r.knownRows, isSinglePartition = true)
  }

  /** A product of two Z-sets whose weights multiply. A known-empty side makes
    * the product known-empty. Broadcast hints apply only when at most one
    * side is single-partition; a product of two single-partition sides is
    * coalesced to one partition, because Catalyst reports a sort-merge join's
    * output partitioning as a collection that a later aliasing projection
    * and union no longer recognise as `SinglePartition`.
    */
  private def bilinear(that: ZSet)(product: (DataFrame, DataFrame) => DataFrame): ZSet = {
    val single = isSinglePartition && that.isSinglePartition
    def side(z: ZSet, w: String) = {
      val d = z.df.withColumnRenamed(W, w)
      if (z.broadcastMe && !single) broadcast(d) else d
    }
    val lw = "__wl"; val rw = "__wr"
    val j = product(side(this, lw), side(that, rw))
      .withColumn(W, col(lw) * col(rw)).drop(lw, rw)
    new ZSet(if (single) j.coalesce(1) else j,
      if (knownEmpty || that.knownEmpty) Some(0L) else None, single)
  }

  // ------------------------------------------------------------- observations

  /** No job runs when the entry count is known (see `compact()`). */
  def isEmpty: Boolean = knownRows.fold(consolidate().df.isEmpty)(_ == 0L)

  def nonEmpty: Boolean = !isEmpty

  /** Number of distinct tuples with non-zero weight. No job runs when the
    * count is known (see `compact()`).
    */
  def entryCount: Long = knownRows.getOrElse(consolidate().df.count())

  /** Sum of all multiplicities (the COUNT aggregate of §7.2 on the Z-set). */
  def totalWeight: Long =
    if (knownEmpty) 0L
    else df.agg(coalesce(sum(W), lit(0L))).head().getLong(0)

  /** Definition 4.2: every multiplicity non-negative. */
  def isPositive: Boolean = consolidate().df.where(col(W) < 0).isEmpty

  /** Definition 4.1: every multiplicity exactly one. */
  def isSetLike: Boolean = consolidate().df.where(col(W) =!= 1).isEmpty

  /** Z-set equality: same consolidated content. */
  def zequals(that: ZSet): Boolean = minus(that).isEmpty

  /** Consolidated entries as (canonical string values, weight), sorted by
    * the values column by column.
    */
  def entries(): Seq[(Seq[String], Long)] = {
    import scala.math.Ordering.Implicits.seqOrdering
    val n = dataCols.size
    consolidate().df.select((dataCols :+ W).map(col): _*).collect().toSeq
      .map { r =>
        val vals = (0 until n).map(i => ZSet.canonValue(r.get(i)))
        (vals, r.getLong(n))
      }
      .sortBy(_._1)
  }

  // ----------------------------------------------------------- conversions

  /** toset (§4.2.1): the underlying set, as a plain DataFrame. */
  def toSetDF: DataFrame = distinctZ.df.drop(W)

  /** Expand a *positive* Z-set into a bag DataFrame (row repeated weight
    * times) — used to hand multisets to the DuckDB oracle.
    */
  def toBagDF: DataFrame = {
    val c = consolidate()
    require(c.df.where(col(W) < 0).isEmpty, "toBagDF: negative multiplicities")
    c.df
      .withColumn("__i", explode(sequence(lit(1L), col(W))))
      .drop(W, "__i")
  }

  /** Mark this Z-set for broadcast in the next join it takes part in.
    * Incremental operators mark the *change-sized* side of each
    * delta-vs-state join: this is the Spark analogue of DBSP's indexed-state
    * lookup (the global auto-broadcast threshold stays disabled; the hint is
    * deliberate). The hint is dropped when both sides are single-partition,
    * where a local join needs no exchange at all.
    */
  def broadcastHint: ZSet = new ZSet(df, knownRows, isSinglePartition, broadcastMe = true)

  // ------------------------------------------------------------ maintenance

  /** Consolidate and materialize (cut lineage). Semantically the identity;
    * stateful stream operators call this on every state update so that tick
    * t's plan does not contain tick t-1's. This is the one materialization
    * every operator uses, and it runs as a single Spark job when the input
    * is single-partition:
    *  - the consolidated plan is checkpointed, and the number of rows it
    *    produced is observed on the way, so the result knows its entry
    *    count;
    *  - a result whose estimated size fits
    *    `spark.sql.adaptive.coalescePartitions.minPartitionSize` (the size
    *    below which adaptive execution would merge it into one partition
    *    anyway) is exposed as one partition of known size;
    *  - an empty result becomes `ZSet.empty`, which Catalyst folds away.
    */
  def compact(): ZSet =
    if (knownRows.isDefined) this
    else {
      val parts = math.max(1, math.min(8, spark.sparkContext.defaultParallelism))
      val observed = consolidate().df.coalesce(parts)
        .observe(ZSet.RowsMetric, count(lit(1)) as "n")
      val cp = observed.localCheckpoint()
      val n = observed.queryExecution.observedMetrics(ZSet.RowsMetric).getLong(0)
      if (n == 0L) ZSet.empty(spark, dataSchema)
      else {
        val (scan, single) = CheckpointScan(cp, n, ZSet.singlePartitionBytes(spark))
        new ZSet(scan, Some(n), single)
      }
    }

  /** Count of physical rows (no consolidation) — cheap way to force a plan. */
  def physicalCount: Long = df.count()
}

object ZSet {
  /** Reserved weight-column name. */
  val W = "__w"

  /** Wrap a DataFrame that already carries a `__w` weight column. */
  def raw(df: DataFrame): ZSet = {
    require(df.columns.contains(W), s"raw: missing weight column $W")
    val cast =
      if (df.schema(W).dataType == LongType) df
      else df.withColumn(W, col(W).cast(LongType))
    new ZSet(cast)
  }

  /** Wrap a DataFrame that operator code computed from the given Z-sets, and
    * that has no rows when they all have none. It is known-empty when they
    * all are, and exposed as one partition when they all are: the operator's
    * output is then change-sized.
    */
  private[repro] def derived(df: DataFrame, from: ZSet*): ZSet = {
    val rows = if (from.forall(_.knownEmpty)) Some(0L) else None
    if (from.forall(_.isSinglePartition)) new ZSet(raw(df).df.coalesce(1), rows, isSinglePartition = true)
    else new ZSet(raw(df).df, rows)
  }

  /** tozset of a bag: duplicates become multiplicities. */
  def fromBag(df: DataFrame): ZSet =
    raw(df.groupBy(df.columns.toSeq.map(col): _*).agg(count(lit(1)).cast(LongType) as W))

  /** tozset of a set (§4.2.1): weight 1 per distinct row. */
  def fromSet(df: DataFrame): ZSet = raw(df.distinct().withColumn(W, lit(1L)))

  /** Z-set with weights taken from an existing column. */
  def fromWeighted(df: DataFrame, weightCol: String): ZSet =
    raw(df.withColumn(W, col(weightCol).cast(LongType)).drop(weightCol))

  /** The empty Z-set with the given data schema: an empty local relation,
    * which Catalyst folds out of any plan it appears in.
    */
  def empty(spark: SparkSession, schema: StructType): ZSet = {
    val full = StructType(schema.fields :+ StructField(W, LongType, nullable = false))
    new ZSet(spark.createDataFrame(java.util.Collections.emptyList[Row](), full),
      Some(0L), isSinglePartition = true)
  }

  /** Name of the row count `compact()` observes. */
  private val RowsMetric = "zset_rows"

  /** Largest estimated size that `compact()` exposes as one partition. */
  private def singlePartitionBytes(spark: SparkSession): Long =
    JavaUtils.byteStringAsBytes(
      spark.conf.get("spark.sql.adaptive.coalescePartitions.minPartitionSize"))

  /** The group of Z-sets over a fixed schema (§4.1: `Z[A]` is abelian). */
  def group(spark: SparkSession, schema: StructType): Group[ZSet] = new Group[ZSet] {
    val zero: ZSet = empty(spark, schema)
    def plus(a: ZSet, b: ZSet): ZSet = a.plus(b)
    def negate(a: ZSet): ZSet = a.negate
    def isZero(a: ZSet): Boolean = a.isEmpty
    override def compact(a: ZSet): ZSet = a.compact()
  }

  private[repro] def canonValue(v: Any): String = v match {
    case null                         => "∅"
    case d: Double                    => f"$d%.6f"
    case f: Float                     => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal     => f"${bd.doubleValue}%.6f"
    case x                            => x.toString
  }
}
