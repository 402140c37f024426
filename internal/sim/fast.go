package sim

import (
	"fmt"
	"math"

	"wlcache/internal/energy"
)

// This file is the fast policy's settle window (DESIGN.md §16.2). New
// picks one of two policies from Config.Tier, and Load32, Store32 and
// Compute branch on it once, where an event enters the simulator:
//
//   - Exact (perEvent) has no window. Every event settles alone, in
//     voltage space, through step (accessExact, computeExact): the seed
//     engine's per-event arithmetic, same operations in the same order,
//     which the golden pins bit for bit, and endEventExact runs the
//     voltage monitor after it.
//   - Fast keeps capacitor state in energy space (fcapE, joules). Harvest
//     clamping and the Vbackup/VMin comparisons all have exact
//     energy-space forms (E ≥ ½CV² ⇔ V' ≥ V), so no sqrt is needed
//     between outages. Events — access tails and Compute blocks —
//     accumulate in the open window: access events accumulate their
//     breakdown in place, so the per-event work is the category sum and
//     two compares; the breakdown is flushed into Result.Energy at each
//     settle, and the voltage monitor (settleAndCheck) runs at every
//     settle. A settle is forced before either bound is violated:
//       budget bound   pending draw < drawBudget, where drawBudget is
//                      the settled energy above the Vbackup threshold.
//                      Harvest only adds energy, so no Vbackup crossing
//                      can hide inside a window that respects it.
//       deadline bound now < settleDeadline, the first instant the
//                      trace could have harvested the capacitor full.
//                      Within such a window the VMax clamp provably
//                      cannot engage, so one batched Integrate equals
//                      the per-event sequence (up to fp reordering).
//     An event that would cross the deadline settles in its own
//     single-event window, so the VMax clamp applies per event there,
//     as on the exact policy. Compute blocks are fused when the budget
//     covers them and degrade to ComputeChunk monitor granularity near
//     the threshold; per-block costs are memoized by block length.
//
// Everything event-ordered stays event-ordered on both policies: the
// instruction sequence, every design access and every outage boundary
// are decided at the same event granularity, so all counts are exactly
// equal; the fast policy only reorders floating-point sums. The outage
// sequence (powerFail) runs in voltage space on both, entered through
// syncCapFromFast on the fast policy and left through openWindow.
//
// Pending draw is tracked as two scalars: pendingBlock (Compute blocks,
// which bypass ebScratch) and scratchDraw (ebScratch's total as of the
// last access event). A fast settle can land mid-access — wl-dyn raises
// its reserve from inside AccessEB via ReserveNotifyBinder — at which
// point ebScratch holds a partially built event that scratchDraw does
// not yet cover; settle flushes the whole scratch but settles only the
// covered draw, carrying the in-flight remainder into the new window.

// blockMemoSize is the direct-mapped block-cost memo size. Workload
// kernels issue Compute(n) with a handful of distinct small n per
// inner loop; 16 slots keyed by n make collisions rare without a map
// lookup on the hot path.
const blockMemoSize = 16

// blockCost caches the derived costs of a Compute block of length n:
// its duration, its core/fetch energies, their sum (the block's tracked
// draw) and its leakage leakW*dt/1e12. The exact policy reads each
// chunk's costs from it; the fast policy derives leakage from window
// time at settle instead. Every entry folds only per-run constants
// (cycle time, InstrEnergy, icache fetch energy, leakage power).
type blockCost struct {
	n       int
	dt      int64
	compute float64
	fetch   float64
	draw    float64
	leak    float64
}

// openWindow starts a settle window at s.now on the fast policy: after
// the initial charge-up and at every boot, when the previous window (if
// any) has settled empty. It derives the energy-space state from the
// capacitor; the window stays closed (deadline at its start) until the
// caller arms it against the current reserve with one
// refreshThresholds: Run right away, powerFail after OnBoot, which may
// change the reserve. The exact policy has no window.
func (s *Simulator) openWindow() {
	if s.perEvent {
		return
	}
	s.settleT = s.now
	s.settleDeadline = s.now
	v := s.cap.Voltage()
	s.fcapE = 0.5 * s.cfg.CapacitorF * v * v
}

// syncCap settles the window and hands its state to the voltage-space
// capacitor, which reserve probes and the final flush read. The exact
// policy's capacitor is always current.
func (s *Simulator) syncCap() {
	if s.perEvent {
		return
	}
	s.settle()
	s.syncCapFromFast()
}

// syncCapFromFast materializes the settled energy state as a voltage.
// One sqrt, off the hot path.
func (s *Simulator) syncCapFromFast() {
	e := s.fcapE
	if e < 0 {
		e = 0
	}
	s.cap.SetVoltage(math.Sqrt(2 * e / s.cfg.CapacitorF))
}

// settleAndCheck is the fast policy's voltage monitor: settle the
// window, then run the outage sequence if the capacitor reached
// Vbackup. `fcapE >= eVb` is the exact policy's `v >= vb` in energy
// space. A fault plan always takes the exact policy, so none is
// consulted here.
func (s *Simulator) settleAndCheck() {
	// At an event boundary the whole scratch is covered draw.
	s.scratchDraw = s.scratchTotal()
	s.settle()
	if s.untraced || s.fcapE >= s.eVb {
		return
	}
	s.syncCapFromFast()
	s.checkPowerSlow()
}

// settle closes the open window at s.now. It flushes the accumulated
// breakdown into Result.Energy, accounts the window's leakage from the
// window duration (the window tiles [settleT, now] contiguously with
// on-period events, so it is a single expression, leakW·dt; on-time and
// the instruction count are derived only where read, by deriveLedger),
// integrates the harvest actually available, applies the covered draw,
// samples the recorder's voltage gauge (one sqrt, only when recording),
// and re-arms the budget and deadline. Any in-flight (mid-access)
// accumulation beyond scratchDraw is carried into the new window as
// pending draw, not settled. The window construction (see rearm)
// guarantees the single end-of-window VMax clamp is equivalent to
// per-event clamping.
func (s *Simulator) settle() {
	carry := s.scratchTotal() - s.scratchDraw
	windowDt := s.now - s.settleT
	leakE := s.leakWPerPS * float64(windowDt)
	drawn := s.pendingBlock + s.scratchDraw + leakE
	s.res.Energy.Add(&s.ebScratch)
	s.res.Energy.Leak += leakE
	s.ebScratch = energy.Breakdown{}
	s.pendingBlock = carry
	s.scratchDraw = 0
	s.settleT = s.now
	if !s.untraced {
		if windowDt > 0 {
			s.fcapE += s.cfg.OnHarvestEff * s.cursor.Integrate(s.now-windowDt, s.now)
			if s.fcapE > s.eCapMax {
				s.fcapE = s.eCapMax
			}
		}
		s.fcapE -= drawn
		if s.fcapE < s.eFloor {
			// Mirror the exact policy's guarded-Step failure: a draw
			// punched through the reserve band past VMin.
			s.syncCapFromFast()
			s.abort(fmt.Errorf("at t=%d ps (design %s): %w", s.now, s.design.Name(),
				s.cap.UnderVoltageError(drawn, s.cfg.VMin)))
		}
		if s.cfg.Obs != nil {
			s.cfg.Obs.VoltageGauge().Set(math.Sqrt(2 * s.fcapE / s.cfg.CapacitorF))
		}
	}
	s.rearm()
}

// rearm recomputes the fast window's two bounds from the settled state.
//
// drawBudget is half the energy above the Vbackup threshold assuming
// zero harvest — conservative, since harvest only raises the trajectory
// — so tracked (non-leak) draw < drawBudget proves no Vbackup crossing
// occurred in the window. The other half of the band is reserved for
// leakage, which is not tracked per event: the leak deadline below caps
// the window where leakage alone could spend that half, so
// tracked + leak < the full band always holds.
//
// settleDeadline is the earlier of the leak deadline and the first
// instant at which the trace could have harvested the remaining
// headroom to VMax. Before the harvest bound, no prefix of the window
// can clamp, making the batched integral exact; events reaching past
// the deadline are settled as single-event windows (always sound — the
// leak bound just forces an early settle). Under uninterrupted power
// there is no capacitor, so neither bound applies.
func (s *Simulator) rearm() {
	s.settleDeadline = math.MaxInt64
	if s.untraced {
		s.drawBudget = math.Inf(1)
		return
	}
	budget := s.fcapE - s.eVb
	if budget < 0 {
		budget = 0
	}
	s.drawBudget = 0.5 * budget
	if s.leakWPerPS > 0 {
		if f := s.drawBudget / s.leakWPerPS; f < math.MaxInt64/4 {
			s.settleDeadline = s.settleT + int64(f)
		}
	}
	if s.cfg.OnHarvestEff <= 0 {
		return
	}
	headroom := s.eCapMax - s.fcapE
	if dt, ok := s.cursor.TimeToHarvest(s.settleT, headroom/s.cfg.OnHarvestEff); ok {
		if d := s.settleT + dt; d < s.settleDeadline {
			s.settleDeadline = d
		}
	}
}

// windowStep completes a memory operation on the fast policy, after
// the design's AccessEB returned done: it adds the 1-cycle pipeline
// slot and the core energy, and reports whether the event stays inside
// the open window. Inside it, leakage is left to the settle: the
// category sum, two stores, a compare. Otherwise the caller passes end
// to settleEvent. end is strictly after s.now (at least one pipeline
// slot), so time cannot run backwards.
func (s *Simulator) windowStep(done int64) (end int64, ok bool) {
	end = max(s.now+s.perInstrPS, done)
	s.ebScratch.Compute += s.cfg.InstrEnergy
	s.ebScratch.CacheRead += s.instrE
	if end < s.settleDeadline {
		s.scratchDraw = s.scratchTotal()
		s.now = end
		ok = s.pendingBlock+s.scratchDraw < s.drawBudget
	}
	return
}

// settleEvent settles a memory operation ending at end that windowStep
// did not keep in the window. One past the deadline settles in its own
// single-event window; one over the draw budget (s.now is already end,
// so closeWindowBefore is a no-op) settles the window it completes.
func (s *Simulator) settleEvent(end int64) {
	s.closeWindowBefore(end)
	s.now = end
	s.settleAndCheck()
}

// closeWindowBefore settles the open window when the event ending at
// `to` would reach past the settle deadline, so that event settles
// alone. No-op for an empty window (the event is already alone).
func (s *Simulator) closeWindowBefore(to int64) {
	if to >= s.settleDeadline && (s.now > s.settleT || s.pendingBlock > 0 || s.scratchDraw > 0) {
		s.settle()
	}
}

// scratchTotal sums the accumulated scratch categories with a balanced
// tree (three fp-add latencies instead of seven). The association
// differs from Breakdown.Total, which voltage-space steps keep; the
// fast policy's outputs are ε-bounded, and the budget compare this
// feeds is conservative by half a band, so the reordering is
// immaterial.
func (s *Simulator) scratchTotal() float64 {
	b := &s.ebScratch
	return ((b.CacheRead + b.CacheWrite) + (b.MemRead + b.MemWrite)) +
		((b.Compute + b.Checkpoint) + (b.Restore + b.Leak))
}

// windowRoom is how many of the next n ALU instructions the open window
// can absorb: the worst-case (zero-harvest) draw budget and the
// deadline each cap the fused run. An exhausted budget gives zero
// without the division.
func (s *Simulator) windowRoom(n int) int64 {
	room := int64(n)
	if s.perInstrDrawE > 0 {
		avail := s.drawBudget - s.pendingBlock - s.scratchDraw
		if avail <= 0 {
			return 0
		}
		// Compared in float space: the budget is unbounded under
		// uninterrupted power.
		if r := avail / s.perInstrDrawE; r < float64(room) {
			room = int64(r)
		}
	}
	if byTime := (s.settleDeadline - s.now) / s.perInstrPS; byTime < room {
		room = byTime
	}
	return room
}

// block returns the memoized costs of a Compute block of n ALU
// instructions, filling its slot on a miss with the seed engine's
// per-chunk formulas.
func (s *Simulator) block(n int) *blockCost {
	m := &s.blockMemo[n&(blockMemoSize-1)]
	if m.n != n {
		*m = blockCost{n: n, dt: int64(n) * s.perInstrPS,
			compute: float64(n) * s.cfg.InstrEnergy, fetch: float64(n) * s.instrE}
		m.draw = m.compute + m.fetch
		m.leak = s.leakW * float64(m.dt) / 1e12
	}
	return m
}

// addBlock advances over one memoized block of n ALU instructions on
// the fast policy. Leakage is derived from the window at settle time,
// so a block is five adds. Block draw is tracked in pendingBlock, not
// the scratch, so it never perturbs the access path's cached scratch
// total.
func (s *Simulator) addBlock(m *blockCost, n int) {
	s.pendingBlock += m.draw
	s.res.Energy.Compute += m.compute
	s.res.Energy.CacheRead += m.fetch
	s.computeRetired += uint64(n)
	s.now += m.dt
}
