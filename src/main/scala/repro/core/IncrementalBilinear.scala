package repro.core

import repro.circuit.Op2
import repro.zset.{Accumulator, ZSet}

/** The efficient incremental form of a bilinear operator `times` — the
  * equi-join ⋈ or the Cartesian product × — by Theorem 3.4:
  * {{{
  *   Δ(a × b) = Δa × Δb + z⁻¹(I(a)) × Δb + Δa × z⁻¹(I(b))
  * }}}
  * The two delayed integrals are the operator's state (space O(R), §4.5),
  * maintained append-only so each tick costs O(C): the change is compacted,
  * a large state is not rewritten. Each delta-vs-state product broadcasts
  * the change side — Spark's analogue of an indexed state lookup — unless
  * both sides are single-partition and join locally.
  */
final class IncrementalBilinear(times: (ZSet, ZSet) => ZSet) extends Op2[ZSet, ZSet, ZSet] {
  private var accA: Option[Accumulator] = None // z⁻¹(I(a))
  private var accB: Option[Accumulator] = None

  /** Bootstrap the operator's state with pre-integrated relations, as if the
    * stream had started with one bulk transaction whose output was discarded.
    * Must be called before the first `step`.
    */
  def seed(a: ZSet, b: ZSet): Unit = {
    require(accA.isEmpty && accB.isEmpty, "seed after step")
    accA = Some(Accumulator.of(a.compact()))
    accB = Some(Accumulator.of(b.compact()))
  }

  def step(da: ZSet, db: ZSet): ZSet = {
    val ia = accA.getOrElse {
      val a = Accumulator.empty(da.spark, da.dataSchema); accA = Some(a); a
    }
    val ib = accB.getOrElse {
      val b = Accumulator.empty(db.spark, db.dataSchema); accB = Some(b); b
    }
    val dac = da.compact()
    val dbc = db.compact()
    val out = times(dac.broadcastHint, dbc)
      .plus(times(ia.value, dbc.broadcastHint))
      .plus(times(dac.broadcastHint, ib.value))
    ia.add(dac)
    ib.add(dbc)
    out
  }
}
