package repro.recursive

import org.apache.spark.sql.types._

import repro.nested.NestedIncrementalRunner
import repro.relational.ZExpr
import repro.relational.ZExpr._
import repro.zset.ZSet
import repro.{Oracle, SparkSpec, ZSetFixtures}

/** Further stratified Datalog programs through the §5 machinery — the
  * generality claim beyond transitive closure.
  */
class DatalogProgramsSpec extends SparkSpec with ZSetFixtures {

  private val rSchema = StructType(Seq(StructField("n", LongType, nullable = false)))

  // reachable(x) :- source(x).
  // reachable(y) :- reachable(x), edge(x, y).
  private val reachBody =
    ZSum(
      ZMap(ZInput("S"), Seq("n")),
      ZMap(ZJoin(ZMap(ZInput("E"), Seq("h AS n", "t")), ZInput("R"), Seq("n")),
           Seq("t AS n")))

  private val reachOracle =
    """WITH RECURSIVE r(n) AS (
      |  SELECT n FROM s
      |  UNION
      |  SELECT e.t FROM e JOIN r ON e.h = r.n
      |)
      |SELECT n FROM r""".stripMargin

  private def edges(pairs: (Long, Long)*): ZSet =
    zs2("h", "t", pairs.map(p => p -> 1L): _*)

  /** Maintain `R = distinct(body(…, R))` with [[NestedIncrementalRunner]]
    * over a stream of transactions (a change per input); after every one the
    * integrated view must be a set equal to DuckDB's recursive CTE over the
    * integrated inputs (table names are the input names in lower case).
    */
  private def checkIncremental(body: ZExpr, rEmpty: ZSet, oracleSql: String,
                               transactions: Seq[Map[String, ZSet]]): Unit = {
    val runner = new NestedIncrementalRunner(body, rEmpty)
    var view = rEmpty
    var inputs = Map.empty[String, ZSet]
    transactions.zipWithIndex.foreach { case (d, t) =>
      val (dR, _) = runner.step(d)
      view = view.plus(dR).compact()
      inputs = d.map { case (n, z) => n -> inputs.get(n).fold(z)(_.plus(z)).compact() }
      withClue(s"transaction $t: ") {
        assert(view.isSetLike, view.entries())
        Oracle.assertEquivalent(view.toSetDF, oracleSql,
          inputs.toSeq.map { case (n, z) => n.toLowerCase -> z.toSetDF }: _*)
      }
    }
  }

  test("source reachability: naïve ≡ DuckDB recursive CTE") {
    val e = edges(1L -> 2L, 2L -> 3L, 4L -> 5L, 3L -> 1L)
    val s = zs1("n", 1L -> 1L)
    val (r, _) = Fixpoint.naive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    Oracle.assertEquivalent(r.toSetDF, reachOracle, "s" -> s.toSetDF, "e" -> e.toSetDF)
  }

  test("source reachability: semi-naïve ≡ naïve, disconnected parts excluded") {
    val e = edges(1L -> 2L, 2L -> 3L, 4L -> 5L)
    val s = zs1("n", 1L -> 1L)
    val (rn, _) = Fixpoint.naive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    val (rs, _) = Fixpoint.semiNaive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    assert(rn.zequals(rs))
    assert(entriesOf(rs).map(_._1.head).toSet == Set("1", "2", "3")) // 4, 5 unreachable
  }

  test("source reachability with multiple sources") {
    val e = edges(1L -> 2L, 4L -> 5L, 5L -> 6L)
    val s = zs1("n", 1L -> 1L, 4L -> 1L)
    val (r, _) = Fixpoint.semiNaive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    Oracle.assertEquivalent(r.toSetDF, reachOracle, "s" -> s.toSetDF, "e" -> e.toSetDF)
  }

  test("source reachability maintained incrementally ≡ DuckDB after every transaction") {
    val noSource = zs1("n")
    checkIncremental(reachBody, ZSet.empty(spark, rSchema), reachOracle, Seq(
      Map("S" -> zs1("n", 1L -> 1L), "E" -> edges(1L -> 2L, 2L -> 3L, 4L -> 5L)),
      Map("S" -> noSource, "E" -> edges(3L -> 4L, 3L -> 2L)),  // 4, 5 reachable; cycle 2 ⇄ 3
      // Cuts 2–5 off: the cycle must not keep 2 and 3 reachable.
      Map("S" -> noSource, "E" -> edges(1L -> 2L).negate),
      Map("S" -> zs1("n", 4L -> 1L), "E" -> edges()),          // a second source
      Map("S" -> noSource, "E" -> edges(1L -> 2L)),            // re-insert
      Map("S" -> noSource, "E" -> edges())))                   // empty transaction
  }

  // ancestor(x, y) :- parent(x, y).
  // ancestor(x, z) :- parent(x, y), ancestor(y, z).
  private val ancSchema = StructType(Seq(
    StructField("a", LongType, nullable = false),
    StructField("d", LongType, nullable = false)))
  private val ancBody =
    ZSum(
      ZMap(ZInput("P"), Seq("h AS a", "t AS d")),
      ZMap(ZJoin(ZMap(ZInput("P"), Seq("h AS a", "t AS m")),
                 ZMap(ZInput("R"), Seq("a AS m", "d")), Seq("m")),
           Seq("a", "d")))

  private val ancOracle =
    """WITH RECURSIVE anc(a, d) AS (
      |  SELECT h, t FROM p
      |  UNION
      |  SELECT p.h, anc.d FROM p JOIN anc ON p.t = anc.a
      |)
      |SELECT a, d FROM anc""".stripMargin

  test("ancestor: semi-naïve ≡ DuckDB on a family tree") {
    val p = edges(1L -> 2L, 1L -> 3L, 2L -> 4L, 3L -> 5L, 4L -> 6L)
    val (r, _) = Fixpoint.semiNaive(ancBody, Map("P" -> p), ZSet.empty(spark, ancSchema))
    Oracle.assertEquivalent(r.toSetDF, ancOracle, "p" -> p.toSetDF)
  }

  test("ancestor maintained incrementally ≡ DuckDB after every transaction") {
    checkIncremental(ancBody, ZSet.empty(spark, ancSchema), ancOracle, Seq(
      Map("P" -> edges(1L -> 2L, 2L -> 3L, 3L -> 4L)),
      Map("P" -> edges(4L -> 5L, 1L -> 6L)),
      Map("P" -> edges(2L -> 3L).negate), // splits the line in two
      Map("P" -> edges(2L -> 3L)),        // re-insert
      Map("P" -> edges())))               // empty transaction
  }

  test("incremental ancestor fails loudly when maxIter is below the chain depth") {
    val runner = new NestedIncrementalRunner(ancBody, ZSet.empty(spark, ancSchema), maxIter = 2)
    val e = intercept[IllegalArgumentException] {
      runner.step(Map("P" -> edges(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 5L)))
    }
    assert(e.getMessage.contains("no convergence after 2 iterations"))
  }

  test("ancestor: semi-naïve iteration depth follows generation depth") {
    val p = edges(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 5L) // 4 generations
    val (_, stats) = Fixpoint.semiNaive(ancBody, Map("P" -> p), ZSet.empty(spark, ancSchema))
    assert(stats.iterations >= 4 && stats.iterations <= 6)
  }
}
