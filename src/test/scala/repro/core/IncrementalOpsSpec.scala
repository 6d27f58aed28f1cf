package repro.core

import scala.util.Random

import org.apache.spark.sql.execution.CoalesceExec
import org.apache.spark.sql.types._

import repro.algebra.Group
import repro.circuit.Op
import repro.zset.ZSet
import repro.{SparkProbes, SparkSpec, ZSetFixtures}

/** Theorem 3.4 (incremental join) and Proposition 4.7 (incremental distinct)
  * checked against the brute-force D ∘ Q ∘ I on randomized change streams —
  * the heart of the incrementalization algorithm.
  */
class IncrementalOpsSpec extends SparkSpec with ZSetFixtures with SparkProbes {

  private val schema2 = StructType(Seq(
    StructField("k", LongType, nullable = false),
    StructField("v", LongType, nullable = false)))
  private val schema1 = StructType(Seq(StructField("k", LongType, nullable = false)))

  private def randDelta2(rnd: Random, vCol: String): ZSet = {
    val n = rnd.nextInt(4)
    if (n == 0) ZSet.empty(spark, StructType(Seq(
      StructField("k", LongType, nullable = false),
      StructField(vCol, LongType, nullable = false))))
    else zs2("k", vCol,
      Seq.fill(n)(((rnd.nextInt(4).toLong, rnd.nextInt(3).toLong), rnd.nextInt(5) - 2L))
        .filter(_._2 != 0L): _*)
  }

  private def randDelta1(rnd: Random): ZSet = {
    val n = rnd.nextInt(4)
    if (n == 0) ZSet.empty(spark, schema1)
    else zs1("k", Seq.fill(n)((rnd.nextInt(5).toLong, rnd.nextInt(5) - 2L)).filter(_._2 != 0L): _*)
  }

  test("Thm 3.4: IncrementalJoin ≡ brute-force (D ∘ ↑⋈ ∘ I) on random change streams") {
    implicit val gA: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false), StructField("va", LongType, nullable = false))))
    implicit val gB: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false), StructField("vb", LongType, nullable = false))))
    implicit val gC: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false),
      StructField("va", LongType, nullable = false),
      StructField("vb", LongType, nullable = false))))

    val rnd = new Random(21)
    val as = Seq.fill(5)(randDelta2(rnd, "va"))
    val bs = Seq.fill(5)(randDelta2(rnd, "vb"))

    val efficient = new IncrementalBilinear(_.join(_, Seq("k")))
    val brute = Op.incremental2(ZSetOps.join(Seq("k")))(gA, gB, gC)
    as.zip(bs).foreach { case (da, db) =>
      val e = efficient.step(da, db)
      val b = brute.step(da, db)
      assert(e.zequals(b))
    }
  }

  test("Thm 3.4: IncrementalCartesian ≡ brute-force on random change streams") {
    implicit val gA: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("x", LongType, nullable = false))))
    implicit val gB: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("y", LongType, nullable = false))))
    implicit val gC: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("x", LongType, nullable = false), StructField("y", LongType, nullable = false))))

    val rnd = new Random(22)
    def d1(col: String): ZSet = {
      val n = rnd.nextInt(3)
      if (n == 0) ZSet.empty(spark, StructType(Seq(StructField(col, LongType, nullable = false))))
      else ZSet.raw {
        import spark.implicits._
        Seq.fill(n)((rnd.nextInt(3).toLong, rnd.nextInt(5) - 2L)).filter(_._2 != 0).toDF(col, ZSet.W)
      }
    }
    val as = Seq.fill(4)(d1("x"))
    val bs = Seq.fill(4)(d1("y"))
    val efficient = new IncrementalBilinear(_ cartesian _)
    val brute = Op.incremental2(ZSetOps.cartesian)(gA, gB, gC)
    as.zip(bs).foreach { case (da, db) =>
      assert(efficient.step(da, db).zequals(brute.step(da, db)))
    }
  }

  test("incremental join integrated over time equals join of integrals") {
    val da1 = zs2("k", "va", (1L, 10L) -> 1L)
    val da2 = zs2("k", "va", (2L, 20L) -> 1L)
    val db1 = zs2("k", "vb", (1L, 100L) -> 1L)
    val db2 = zs2("k", "vb", (2L, 200L) -> 1L, (1L, 100L) -> -1L)
    val inc = new IncrementalBilinear(_.join(_, Seq("k")))
    val out = inc.step(da1, db1).plus(inc.step(da2, db2))
    val full = da1.plus(da2).join(db1.plus(db2), Seq("k"))
    assert(out.zequals(full))
  }

  test("Prop 4.7: IncrementalDistinct ≡ brute-force (D ∘ ↑distinct ∘ I) on random change streams") {
    implicit val g: Group[ZSet] = ZSet.group(spark, schema1)
    val rnd = new Random(23)
    val deltas = Seq.fill(8)(randDelta1(rnd))
    val efficient = new IncrementalDistinct
    val brute = Op.incremental(ZSetOps.distinct)(g, g)
    deltas.foreach { d =>
      assert(efficient.step(d).zequals(brute.step(d)))
    }
  }

  test("Prop 4.7: H emits +1 only on ≤0 → >0 crossings and −1 on >0 → ≤0") {
    val i = zs1("k", 1L -> 1L, 2L -> 2L, 3L -> -1L)
    val d = zs1("k", 1L -> -1L, 2L -> -1L, 3L -> 2L, 4L -> 1L)
    val h = IncrementalDistinct.h(i, d)
    // 1: 1→0 crossing down (−1); 2: 2→1 stays positive (0);
    // 3: −1→1 crossing up (+1); 4: 0→1 crossing up (+1).
    assert(entriesOf(h) == Set((Seq("1"), -1L), (Seq("3"), 1L), (Seq("4"), 1L)))
  }

  test("Prop 4.7: work is bounded by the change — untouched keys produce nothing") {
    val inc = new IncrementalDistinct
    val big = zs1("k", (1L to 50L).map(k => k -> 1L): _*)
    inc.step(big)
    val tiny = zs1("k", 7L -> -1L)
    val out = inc.step(tiny)
    assert(entriesOf(out) == Set((Seq("7"), -1L)))
  }

  test("incremental distinct over a full stream reconstructs distinct of the integral") {
    val rnd = new Random(24)
    val deltas = Seq.fill(6)(randDelta1(rnd))
    val inc = new IncrementalDistinct
    var outAcc = ZSet.empty(spark, schema1)
    var inAcc = ZSet.empty(spark, schema1)
    deltas.foreach { d =>
      outAcc = outAcc.plus(inc.step(d))
      inAcc = inAcc.plus(d)
    }
    assert(outAcc.zequals(inAcc.distinctZ))
  }

  test("seeded IncrementalJoin ≡ bulk-loaded IncrementalJoin on subsequent ticks") {
    val a = zs2("k", "va", (1L, 10L) -> 1L, (2L, 20L) -> 1L)
    val b = zs2("k", "vb", (1L, 5L) -> 1L, (3L, 7L) -> 1L)
    val da = zs2("k", "va", (3L, 30L) -> 1L, (1L, 10L) -> -1L)
    val db = zs2("k", "vb", (2L, 9L) -> 1L)

    val bulk = new IncrementalBilinear(_.join(_, Seq("k")))
    bulk.step(a, b)
    val seeded = new IncrementalBilinear(_.join(_, Seq("k")))
    seeded.seed(a, b)
    assert(bulk.step(da, db).zequals(seeded.step(da, db)))
  }

  test("seeded IncrementalDistinct ≡ bulk-loaded IncrementalDistinct on subsequent ticks") {
    val base = zs1("k", 1L -> 2L, 2L -> 1L)
    val d = zs1("k", 1L -> -2L, 3L -> 1L)
    val bulk = new IncrementalDistinct
    bulk.step(base)
    val seeded = new IncrementalDistinct
    seeded.seed(base)
    assert(bulk.step(d).zequals(seeded.step(d)))
  }

  test("seed after step is rejected") {
    val op = new IncrementalDistinct
    op.step(zs1("k", 1L -> 1L))
    intercept[IllegalArgumentException](op.seed(zs1("k", 2L -> 1L)))
  }

  test("Thm 3.3: lifted filter/map/project are their own incremental versions") {
    implicit val g2: Group[ZSet] = ZSet.group(spark, schema2)
    val rnd = new Random(25)
    val deltas = Seq.fill(5)(randDelta2(rnd, "v"))
    val direct = ZSetOps.filter("k % 2 = 0")
    val brute = Op.incremental(ZSetOps.filter("k % 2 = 0"))(g2, g2)
    deltas.foreach { d =>
      assert(direct.step(d).zequals(brute.step(d)))
    }
  }

  test("Thm 3.3 for mapRows (generalized projection)") {
    implicit val g2: Group[ZSet] = ZSet.group(spark, schema2)
    implicit val gOut: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("s", LongType, nullable = false))))
    val rnd = new Random(26)
    val deltas = Seq.fill(5)(randDelta2(rnd, "v"))
    val direct = ZSetOps.map("k + v AS s")
    val brute = Op.incremental(ZSetOps.map("k + v AS s"))(g2, gOut)
    deltas.foreach { d =>
      assert(direct.step(d).zequals(brute.step(d)))
    }
  }

  test("explode (flatmap, §7.4) is linear ⇒ its own incremental version") {
    import org.apache.spark.sql.functions._
    def flat(z: ZSet): ZSet =
      ZSet.raw(z.df.select(explode(sequence(lit(0L), org.apache.spark.sql.functions.col("k"))) as "e",
        org.apache.spark.sql.functions.col(ZSet.W)))
    implicit val g1: Group[ZSet] = ZSet.group(spark, schema1)
    implicit val gOut: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("e", LongType, nullable = false))))
    val rnd = new Random(27)
    val deltas = Seq.fill(4)(randDelta1(rnd).filterZ(org.apache.spark.sql.functions.col("k") >= 0))
    val direct = Op.lift(flat _)
    val brute = Op.incremental(Op.lift(flat _))(g1, gOut)
    deltas.foreach { d => assert(direct.step(d).zequals(brute.step(d))) }
  }

  test("a join tick over small inputs plans no exchange, through an aliasing projection and a sum") {
    val op = new IncrementalBilinear(_.join(_, Seq("k")))
    op.step(zs2("k", "va", (1L, 10L) -> 1L, (2L, 20L) -> 1L).compact(),
      zs2("k", "vb", (1L, 100L) -> 1L, (2L, 200L) -> 1L).compact())
    val out = op.step(zs2("k", "va", (2L, 21L) -> 1L, (1L, 10L) -> -1L).compact(),
      zs2("k", "vb", (2L, 201L) -> 1L).compact())
    assert(out.isSinglePartition)
    assert(exchangesIn(out.df).isEmpty, out.df.queryExecution.executedPlan.toString)
    // A sort-merge join's output, renamed by a projection and unioned with
    // another single-partition Z-set, still consolidates without a shuffle.
    val other = zs2("key", "va", (9L, 9L) -> 1L).compact()
    val renamed = out.mapRows("k AS key", "va").plus(other).consolidate()
    assert(exchangesIn(renamed.df).isEmpty, renamed.df.queryExecution.executedPlan.toString)
    // Probing that output (a one-partition coalesce over the join) by a key
    // set: Catalyst would push a left semi-join below the coalesce.
    val probed = out.restrictTo(zs1("k", 2L -> 1L).compact())
    assert(exchangesIn(probed.df).isEmpty, probed.df.queryExecution.executedPlan.toString)
    assert(probed.entryCount == 3)
    assert(entriesOf(out) == Set(
      (Seq("1", "10", "100"), -1L), (Seq("2", "20", "201"), 1L),
      (Seq("2", "21", "200"), 1L), (Seq("2", "21", "201"), 1L)))
  }

  test("compacted Z-sets carry their observed size: a chain of compacted joins plans no exchange") {
    // Each join's estimate is the product of its inputs'. A compacted result
    // that inherited it would, a few joins down, exceed
    // spark.sql.maxSinglePartitionBytes, and Spark would shuffle the join.
    val chained = (1 to 6).foldLeft(zs2("k", "x0", (1L, 0L) -> 1L, (2L, 0L) -> 1L).compact()) {
      (z, i) => z.join(zs2("k", s"x$i", (1L, i.toLong) -> 1L, (2L, i.toLong) -> 1L).compact(),
        Seq("k")).compact()
    }
    val last = chained.join(zs2("k", "y", (2L, 9L) -> 1L).compact(), Seq("k"))
    assert(exchangesIn(last.df).isEmpty, last.df.queryExecution.executedPlan.toString)
    assert(entriesOf(last) == Set((Seq("2", "0", "1", "2", "3", "4", "5", "6", "9"), 1L)))
  }

  test("a Z-set above the single-partition limit keeps its partitions, and joins and is probed like the batch") {
    val key = "spark.sql.adaptive.coalescePartitions.minPartitionSize"
    val saved = spark.conf.get(key)
    spark.conf.set(key, "1k")
    try {
      import org.apache.spark.sql.functions.{col, lit}
      val big = ZSet.raw(spark.range(4000)
        .select(col("id") % 1000 as "k", col("id") as "va", lit(1L) as ZSet.W)).compact()
      assert(!big.isSinglePartition && big.df.rdd.getNumPartitions > 1)
      assert(big.entryCount == 4000)
      val small = zs2("k", "vb", (7L, 1L) -> 1L, (8L, 2L) -> 1L).compact()
      assert(small.isSinglePartition)
      val op = new IncrementalBilinear(_.join(_, Seq("k")))
      op.seed(big, ZSet.empty(spark, small.dataSchema))
      val dBig = zs2("k", "va", (7L, 5000L) -> 1L, (7L, 7L) -> -1L).compact()
      val out = op.step(dBig, small)
      val batch = big.plus(dBig).join(small, Seq("k"))
      assert(out.zequals(batch))
      assert(out.entryCount == 8)
      // Probing it by a small key set scans it in parallel (no one-task
      // coalesce); only the matching rows are shuffled into one partition,
      // which a consolidation then uses without another exchange.
      val probed = big.restrictTo(small.project("k").support)
      val plan = probed.df.queryExecution.executedPlan
      assert(collectWithSubqueries(plan) { case c: CoalesceExec => c }.isEmpty, plan.toString)
      assert(probed.isSinglePartition && probed.df.rdd.getNumPartitions == 1)
      val consolidated = probed.consolidate().df
      assert(exchangesIn(consolidated).count(_ == "Exchange") == 1,
        consolidated.queryExecution.executedPlan.toString)
      assert(probed.zequals(big.filterZ(col("k").isin(7L, 8L))))
      assert(probed.entryCount == 8)
    } finally spark.conf.set(key, saved)
  }
}
