package sim

import (
	"fmt"
	"runtime/debug"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
)

// defaultMaxOutages aborts runaway simulations that make no progress.
const defaultMaxOutages = 5_000_000

// Simulator executes one workload on one Design under one power
// trace. It implements isa.Machine; the workload calls back into it.
type Simulator struct {
	cfg    Config
	design Design
	nvm    *mem.NVM
	cap    *energy.Capacitor
	golden *mem.Store // architectural image; nil unless cfg.CheckInvariants

	now      int64
	bootTime int64
	prevOn   int64
	lastOn   int64

	instrAtBoot uint64
	noProgress  int

	// Hot-path caches, all derived from values that are constant per
	// run or change only at announced points. cursor integrates the
	// trace without re-locating the current segment on every event; vb
	// is Vbackup(design.ReserveEnergy()) — a sqrt — refreshed by
	// refreshThresholds at reserve changes; leakW, perInstrPS and instrE
	// hoist interface calls and products that are loop-invariant out of
	// Load32/Store32/Compute.
	cursor     *power.Cursor
	vb         float64
	leakW      float64
	perInstrPS int64
	instrE     float64
	noFault    bool // cfg.FaultPlan == nil
	untraced   bool // cfg.Trace == nil

	// Window policy (DESIGN.md §16.2), decided once in New: perEvent
	// (exact) settles every event alone in voltage space; the fast
	// policy batches events in a settle window in energy space (fast.go),
	// and engages on every TierFast run without a fault plan (a plan may
	// crash at any event boundary, which a batched window hides). A
	// recorder observes only settles and event-ordered sites, so it runs
	// on either policy. The fields below perEvent, up to leakWPerPS, are
	// the fast policy's window state.
	perEvent       bool
	fcapE          float64 // capacitor energy (J); the capacitor voltage is synced from it on demand
	eVb            float64 // ½·C·Vbackup² — the monitor threshold in energy space
	eCapMax        float64 // ½·C·VMax² — the harvest clamp in energy space
	eFloor         float64 // ½·C·(VMin−1e-9)² — the guarded-draw floor in energy space
	settleT        int64   // start of the open settle window
	settleDeadline int64   // no event may reach past this without settling
	pendingBlock   float64 // draw of Compute blocks since settleT
	scratchDraw    float64 // scratch total as of the last access event
	drawBudget     float64 // zero-harvest-safe draw before a settle is forced
	perInstrDrawE  float64 // worst-case (zero-harvest) energy per ALU instruction
	leakWPerPS     float64 // leakW/1e12: J per ps, mul instead of div in the settle

	// Compute's block-cost memo and the instructions it retired, on
	// both policies (deriveLedger reads the count), then the exact
	// access path's leakage memo: leakW*accessDt/1e12 for the last
	// access duration.
	blockMemo      [blockMemoSize]blockCost
	computeRetired uint64
	accessDt       int64
	accessLeak     float64

	// ebScratch is the breakdown handed to AccessEB: the open window's
	// on the fast policy, the one event's on the exact policy. Passing a
	// pointer to a local through the interface call would make the local
	// escape — one heap allocation per simulated access; the simulator is
	// single-threaded per run, so one reused buffer is safe.
	ebScratch energy.Breakdown

	// inCheckpoint marks the JIT checkpoint window, during which draws
	// may legitimately spend the reserve band down toward VMin.
	inCheckpoint bool

	res Result
}

// simAbort carries a fatal simulation error through the workload's
// stack via panic/recover (workloads have no error channel).
type simAbort struct{ err error }

// New builds a simulator for the given design. The design must have
// been constructed over nvm so that traffic accounting and durability
// checks observe the same memory.
func New(cfg Config, design Design, nvm *mem.NVM) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxOutages == 0 {
		cfg.MaxOutages = defaultMaxOutages
	}
	s := &Simulator{
		cfg:    cfg,
		design: design,
		nvm:    nvm,
		cap:    energy.NewCapacitor(cfg.CapacitorF, cfg.VMin, cfg.VMax),
	}
	if cfg.CheckInvariants {
		s.golden = mem.NewStore()
	}
	s.perInstrPS = cfg.CyclePS + cfg.ICache.perInstrStall(cfg.CyclePS)
	s.instrE = cfg.ICache.instrEnergy()
	s.leakW = design.LeakPower()
	s.noFault = cfg.FaultPlan == nil
	s.untraced = cfg.Trace == nil
	s.perEvent = cfg.Tier != TierFast || !s.noFault
	s.eCapMax = 0.5 * cfg.CapacitorF * cfg.VMax * cfg.VMax
	floor := cfg.VMin - 1e-9
	s.eFloor = 0.5 * cfg.CapacitorF * floor * floor
	s.perInstrDrawE = cfg.InstrEnergy + s.instrE + s.leakW*float64(s.perInstrPS)/1e12
	s.leakWPerPS = s.leakW / 1e12
	if cfg.Trace != nil {
		s.cursor = power.NewCursor(cfg.Trace)
	}
	s.vb = cfg.Vbackup(design.ReserveEnergy())
	// The initial boot happens with a full capacitor.
	s.cap.SetVoltage(cfg.VMax)
	if binder, ok := design.(EnergyProbeBinder); ok {
		binder.BindEnergyProbe(s.probeReserve)
	}
	if binder, ok := design.(ReserveNotifyBinder); ok {
		binder.BindReserveChanged(s.refreshThresholds)
	}
	// A run's hooks are attached here and nowhere else. One recorder
	// reaches the NVM port (contention histogram) and the design (its
	// own event sites); the simulator feeds the voltage gauge itself at
	// every settle. All sites stay nil-checked when cfg.Obs is nil. The
	// fault plan is armed after, with the same recorder.
	if cfg.Obs != nil {
		nvm.SetPortObserver(cfg.Obs)
		if binder, ok := design.(ObserverBinder); ok {
			binder.BindObserver(cfg.Obs)
		}
	}
	if cfg.FaultPlan != nil {
		cfg.FaultPlan.Arm(nvm, design, cfg.Obs)
	}
	// Sanity: the initial reserve must be chargeable on this capacitor.
	// Only traced runs care — with uninterrupted power Vbackup is never
	// consulted, and even infeasible designs (eager-wb on the default
	// capacitor, §7) can run for reference and fault audits.
	if cfg.Trace != nil {
		if cfg.Von(s.vb) <= s.vb {
			return nil, fmt.Errorf("sim: reserve %.3g J needs Vbackup %.3f V, unreachable below VMax %.3f V",
				design.ReserveEnergy(), s.vb, cfg.VMax)
		}
	}
	return s, nil
}

// refreshThresholds recomputes the cached Vbackup from the design's
// current reserve. It runs once at the start of Run, after
// every OnBoot and — via ReserveNotifyBinder — whenever an adaptive
// design changes its reserve (boot-time adaptation, dynamic maxline
// raises mid-access), so the cached threshold is never consulted
// stale. The fast policy then settles at the current trajectory so its
// budget re-derives from real state against the new threshold.
//
// On the fast policy the block-cost memo is cleared too. Its entries
// fold only per-run constants, so no entry is ever stale, but the flush
// decides window boundaries: a cold entry sends the next Compute(n)
// through the block loop, whose budget split counts leakage where the
// fused check does not. Dropping the flush moves fast-tier sums by an ulp on some
// outage-heavy cells, so it waits for an EngineVersion bump.
func (s *Simulator) refreshThresholds() {
	s.vb = s.cfg.Vbackup(s.design.ReserveEnergy())
	if s.perEvent {
		return
	}
	s.eVb = 0.5 * s.cfg.CapacitorF * s.vb * s.vb
	s.blockMemo = [blockMemoSize]blockCost{}
	s.settle()
}

// Vbackup returns the checkpoint threshold currently enforced by the
// voltage monitor (tests assert it tracks adaptive reserve changes).
func (s *Simulator) Vbackup() float64 { return s.vb }

// probeReserve reports whether the capacitor currently holds enough
// charge to adopt a larger JIT reserve (dynamic adaptation).
func (s *Simulator) probeReserve(newReserve float64) bool {
	if s.cfg.Trace == nil {
		return true // unlimited power
	}
	vb := s.cfg.Vbackup(newReserve)
	if s.cfg.Von(vb) <= vb {
		return false
	}
	s.syncCap()
	// Require some compute headroom above the raised threshold so the
	// raise does not immediately trigger a checkpoint.
	const headroom = 100e-9
	return s.cap.EnergyAbove(vb) > headroom
}

// Run executes the program to completion and returns the collected
// result. The program's return value is recorded as Result.Checksum.
// A panic in the program or the design ends the run with a *PanicError
// (ErrPanic) and the result so far.
func (s *Simulator) Run(name string, program func(m isa.Machine) uint32) (res Result, err error) {
	s.res = Result{Design: s.design.Name(), Workload: name, Trace: "none"}
	if s.cfg.Trace != nil {
		s.res.Trace = s.cfg.Trace.Name
	}
	defer func() {
		if r := recover(); r != nil {
			s.deriveLedger()
			if a, ok := r.(simAbort); ok {
				res, err = s.res, a.err
				return
			}
			res, err = s.res, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	// Initial charge-up: a harvesting device starts dead and must
	// first fill the capacitor to Von. This is what makes very large
	// buffers slow (Figure 10(b)): their charging time dominates.
	if s.cfg.Trace != nil {
		s.forceVoltage(s.cfg.VMin)
		von := s.cfg.Von(s.cfg.Vbackup(s.design.ReserveEnergy()))
		need := 0.5 * s.cfg.CapacitorF * (von*von - s.cap.Voltage()*s.cap.Voltage())
		dt, ok := s.cursor.TimeToHarvest(s.now, need)
		if !ok {
			return s.res, fmt.Errorf("trace %s can never charge the capacitor", s.cfg.Trace.Name)
		}
		s.res.OffTime += dt
		s.now += dt
		s.forceVoltage(von)
		// The charge-up is an off window like any other: without this
		// event the cycle ledger could not attribute the pre-boot dead
		// time and sum(categories) would undershoot OffTime.
		s.cfg.Obs.Outage(0, s.now)
		s.cfg.Obs.VoltageMark(s.now, von)
		s.bootTime = s.now
	}
	s.openWindow()
	s.refreshThresholds()

	sum := program(s)
	// Hand the settled state to the capacitor before the final flush
	// (and before anyone inspects it post-run).
	s.syncCap()
	s.res.Checksum = sum
	s.res.ExecTime = s.now
	s.deriveLedger()

	// Final shutdown flush: not part of the measured execution time,
	// but it completes durability so the NVM image can be audited.
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointStart(s.now, false)
	}
	linesBefore := s.checkpointLines()
	ckptDone, ckptEB := s.design.Checkpoint(s.now)
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointEnd(s.now)
	}
	s.cfg.Obs.CheckpointDone(s.now, ckptDone, false, ckptEB.Total(), s.linesDelta(linesBefore))
	if s.cfg.CheckInvariants {
		if derr := s.design.DurableEqual(s.golden); derr != nil {
			return s.res, fmt.Errorf("final durability check failed (%v): %w", derr, ErrCrashConsistency)
		}
	}
	s.res.NVMTraffic = s.nvm.Traffic()
	if es, ok := s.design.(ExtraStatser); ok {
		s.res.Extra = es.ExtraStats()
	}
	return s.res, nil
}

// Capacitor exposes the energy buffer (tests).
func (s *Simulator) Capacitor() *energy.Capacitor { return s.cap }

// Now returns the current simulated time in ps.
func (s *Simulator) Now() int64 { return s.now }

// --- isa.Machine implementation ---

// Load32 performs an architectural load through the design. It and
// Store32 branch on the policy themselves: the exact policy settles
// the event alone (accessExact); the fast policy accumulates it into
// the open window (windowStep) and settles only when the window closes
// (settleEvent). The event's breakdown accumulates into ebScratch
// (every design accumulates with +=).
func (s *Simulator) Load32(addr uint32) uint32 {
	// Counted before the access, so a ledger derived at an abort inside
	// it counts the access in flight.
	s.res.Loads++
	var v uint32
	if s.perEvent {
		v = s.accessExact(isa.OpLoad, addr, 0)
	} else {
		var done int64
		v, done = s.design.AccessEB(s.now, isa.OpLoad, addr, 0, &s.ebScratch)
		if end, ok := s.windowStep(done); !ok {
			s.settleEvent(end)
		}
	}
	if s.cfg.CheckInvariants {
		if g := s.golden.Read(addr); g != v {
			s.abort(fmt.Errorf("load %#x returned %#x, architectural value is %#x (design %s): %w",
				addr, v, g, s.design.Name(), ErrCrashConsistency))
		}
	}
	return v
}

// Store32 performs an architectural store through the design.
func (s *Simulator) Store32(addr uint32, v uint32) {
	if s.golden != nil {
		s.golden.Write(addr, v)
	}
	s.res.Stores++ // before the access; see Load32
	if s.perEvent {
		s.accessExact(isa.OpStore, addr, v)
		return
	}
	_, done := s.design.AccessEB(s.now, isa.OpStore, addr, v, &s.ebScratch)
	if end, ok := s.windowStep(done); !ok {
		s.settleEvent(end)
	}
}

// Compute accounts for n ALU instructions. On the exact policy they
// run as ComputeChunk-sized events (computeExact). On the fast policy a
// block the open settle window covers whole is fused into it: one memo
// lookup, seven adds, no division. Otherwise — a cold memo or a block
// near a window bound — the loop fuses what the window proves safe and
// degrades to ComputeChunk monitor granularity (a chunk, then a
// settle-and-check) when it is cramped.
func (s *Simulator) Compute(n int) {
	if n < 0 {
		s.abort(fmt.Errorf("negative Compute(%d)", n))
	}
	if s.perEvent {
		s.computeExact(n)
		return
	}
	if n == 0 {
		return
	}
	m := &s.blockMemo[n&(blockMemoSize-1)]
	if m.n == n && s.now+m.dt < s.settleDeadline && s.pendingBlock+s.scratchDraw+m.draw < s.drawBudget {
		s.addBlock(m, n)
		return
	}
	for n > 0 {
		run, check := n, false
		if room := s.windowRoom(n); room < int64(s.cfg.ComputeChunk) && room < int64(n) {
			run, check = min(n, s.cfg.ComputeChunk), true
		} else if room < int64(n) {
			run = int(room)
		}
		m := s.block(run)
		s.closeWindowBefore(s.now + m.dt)
		s.addBlock(m, run)
		if check {
			s.settleAndCheck()
		}
		n -= run
	}
}

// accessExact is a memory operation on the exact policy: the event
// settles alone, in voltage space — its leakage, one step over its
// whole breakdown (with a trace), the breakdown added to the result
// through the pointer, then the monitor. The design adds the
// hierarchy's share, the simulator the 1-cycle pipeline slot and core
// energy. ebScratch is zero on entry and cleared on exit.
func (s *Simulator) accessExact(op isa.Op, addr uint32, val uint32) uint32 {
	eb := &s.ebScratch
	v, done := s.design.AccessEB(s.now, op, addr, val, eb)
	from := s.now
	s.now = max(from+s.perInstrPS, done)
	eb.Compute += s.cfg.InstrEnergy
	eb.CacheRead += s.instrE
	if dt := s.now - from; dt != s.accessDt {
		s.accessDt, s.accessLeak = dt, s.leakW*float64(dt)/1e12
	}
	eb.Leak += s.accessLeak
	if !s.untraced {
		s.step(from, s.now, eb.Total())
	}
	s.res.Energy.Add(eb)
	*eb = energy.Breakdown{}
	s.endEventExact()
	return v
}

// computeExact runs n ALU instructions on the exact policy as events
// of at most ComputeChunk instructions (the monitor's granularity), each
// settled alone in voltage space, its costs read from the block memo.
// A chunk's core and fetch energy go straight to the result; it draws
// leak + (compute + fetch), the seed's (fetch + compute) + leak with
// each addition's operands swapped, which IEEE addition does exactly.
func (s *Simulator) computeExact(n int) {
	for n > 0 {
		run := min(n, s.cfg.ComputeChunk)
		m := s.block(run)
		s.res.Energy.Compute += m.compute
		s.res.Energy.CacheRead += m.fetch
		s.computeRetired += uint64(run)
		from := s.now
		s.now += m.dt
		if !s.untraced {
			s.step(from, s.now, m.leak+m.draw)
		}
		s.res.Energy.Leak += m.leak
		s.endEventExact()
		n -= run
	}
}

// endEventExact is the exact policy's voltage monitor, run after every
// event: it starts the outage sequence once the capacitor has
// discharged to Vbackup or a fault plan forces a crash here.
func (s *Simulator) endEventExact() {
	if s.noFault && (s.untraced || s.cap.Voltage() >= s.vb) {
		return
	}
	s.checkPowerSlow()
}

// deriveLedger computes Result.OnTime and Result.Instructions from the
// counters booked as they happen. All simulated time is on-time except
// the outage sequence's three phases, each booked as time moves
// (ExecTime = OnTime + CheckpointTime + OffTime + RestoreTime), and
// every instruction retired is a load, a store or a Compute
// instruction. Neither policy books the two per event or per settle:
// they are derived where they are read — a fault plan's ShouldCrash,
// the forward-progress check after an outage, and the end or abort of
// Run.
func (s *Simulator) deriveLedger() {
	s.res.OnTime = s.now - s.res.CheckpointTime - s.res.OffTime - s.res.RestoreTime
	s.res.Instructions = s.res.Loads + s.res.Stores + s.computeRetired
}

// advance runs one outage-sequence event (checkpoint, restore, icache
// refill) in voltage space: it moves time to `to`, drawing the event
// energy plus leakage, and accumulates dt into the given phase counter.
func (s *Simulator) advance(to int64, eb *energy.Breakdown, phase *int64) {
	dt := to - s.now
	if dt < 0 {
		s.abort(fmt.Errorf("time went backwards: %d -> %d", s.now, to))
	}
	eb.Leak += s.leakW * float64(dt) / 1e12
	if !s.untraced {
		s.step(s.now, to, eb.Total())
	}
	s.res.Energy.Add(eb)
	*phase += dt
	s.now = to
}

// step is the voltage-space capacitor arithmetic of one event spanning
// [from, to] that drew e joules, its leakage included: integrate the
// harvest, then draw. Every exact-policy event and every
// outage-sequence event of both policies settles through here when the
// run has a trace; without one there is no capacitor, and the callers
// neither form the draw nor call. The fast policy's windows settle in
// energy space instead (settle).
func (s *Simulator) step(from, to int64, e float64) {
	h := s.cfg.OnHarvestEff * s.cursor.Integrate(from, to)
	// Checkpoints spend the reserved band unguarded; the
	// post-checkpoint reserve check in powerFail polices VMin.
	if !s.cap.Step(h, e, s.cfg.VMin, !s.inCheckpoint) {
		s.abort(fmt.Errorf("at t=%d ps (design %s): %w", to, s.design.Name(),
			s.cap.UnderVoltageError(e, s.cfg.VMin)))
	}
	if s.cfg.Obs != nil {
		s.cfg.Obs.VoltageGauge().Set(s.cap.Voltage())
	}
}

// checkPowerSlow triggers the JIT checkpoint + outage + restore
// sequence when the capacitor has discharged to the design's Vbackup,
// or when an installed fault plan forces a crash at this boundary.
// The monitors (endEventExact, settleAndCheck) filter the common case
// out before calling it.
func (s *Simulator) checkPowerSlow() {
	if s.cfg.FaultPlan != nil {
		s.deriveLedger()
		if s.cfg.FaultPlan.ShouldCrash(s.res.Instructions, s.now) {
			s.powerFail(true)
			return
		}
		if s.cfg.Trace == nil || s.cap.Voltage() >= s.vb {
			return
		}
	}
	s.powerFail(false)
}

// powerFail runs one outage: JIT checkpoint, power collapse, recharge,
// restore. forced marks crashes injected by the fault plan; those also
// work without a power trace (the capacitor is then left untouched —
// the supply glitched, it did not drain).
func (s *Simulator) powerFail(forced bool) {
	s.res.Outages++
	if s.res.Outages > s.cfg.MaxOutages {
		s.abort(fmt.Errorf("exceeded %d outages; configuration cannot make progress: %w",
			s.cfg.MaxOutages, ErrNoProgress))
	}
	onDur := s.now - s.bootTime
	s.cfg.Obs.PowerFailure(s.now, s.cap.Voltage(), forced)

	// JIT checkpoint, powered by the reserved energy band.
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointStart(s.now, forced)
	}
	ckptStart := s.now
	linesBefore := s.checkpointLines()
	s.inCheckpoint = true
	done, eb := s.design.Checkpoint(s.now)
	s.advance(done, &eb, &s.res.CheckpointTime)
	s.inCheckpoint = false
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointEnd(s.now)
	}
	s.cfg.Obs.CheckpointDone(ckptStart, s.now, forced, eb.Total(), s.linesDelta(linesBefore))
	if s.cfg.Trace != nil && s.cap.Voltage() < s.cfg.VMin-1e-9 {
		s.abort(fmt.Errorf("V=%.3f < VMin=%.3f after checkpoint (design %s): %w",
			s.cap.Voltage(), s.cfg.VMin, s.design.Name(), ErrReserveExhausted))
	}
	if s.cfg.CheckInvariants {
		if err := s.design.DurableEqual(s.golden); err != nil {
			s.abort(fmt.Errorf("outage %d (%v): %w", s.res.Outages, err, ErrCrashConsistency))
		}
	}

	if s.cfg.Trace != nil {
		// Power collapse: below the operating threshold the dying
		// regulator and monitor burn whatever reserve the checkpoint did
		// not use — the reserved band is energy that could never be spent
		// on computation (§1, §2.3.3). Recharge therefore restarts from
		// VMin, and a design with a larger reserve wastes more per outage.
		s.res.ReserveWasted += s.cap.EnergyAbove(s.cfg.VMin)
		s.forceVoltage(s.cfg.VMin)

		// Power off: recharge to Von. The voltage threshold reflects the
		// *current* reserve (it may have been adapted at this boot).
		von := s.cfg.Von(s.cfg.Vbackup(s.design.ReserveEnergy()))
		need := 0.5 * s.cfg.CapacitorF * (von*von - s.cap.Voltage()*s.cap.Voltage())
		offStart := s.now
		if need > 0 {
			dt, ok := s.cursor.TimeToHarvest(s.now, need)
			if !ok {
				s.abort(fmt.Errorf("trace %s can never recharge %.3g J", s.cfg.Trace.Name, need))
			}
			s.res.OffTime += dt
			s.now += dt
		}
		s.forceVoltage(von)
		s.cfg.Obs.Outage(offStart, s.now)
		s.cfg.Obs.VoltageMark(s.now, von)
	}

	// Boot: restore state, then let the runtime system adapt.
	restoreStart := s.now
	done, eb = s.design.Restore(s.now)
	s.advance(done, &eb, &s.res.RestoreTime)
	// A volatile instruction cache comes back cold: refetch the code
	// working set from NVM.
	if dt, ieb := s.cfg.ICache.coldRefill(); dt > 0 {
		s.advance(s.now+dt, &ieb, &s.res.RestoreTime)
	}
	s.cfg.Obs.RestoreDone(restoreStart, s.now, eb.Total())
	// The new on-period opens a settle window. Boot-time adaptation runs
	// inside it, so a reserve change re-arms it like any other.
	s.openWindow()
	s.prevOn, s.lastOn = s.lastOn, onDur
	if rb, ok := s.design.(Rebooter); ok {
		rb.OnBoot(s.lastOn, s.prevOn)
	}
	// Arm the window against the reserve boot-time adaptation may have
	// changed, even for designs without a reserve-change notification
	// (one sqrt per outage, off the hot path).
	s.refreshThresholds()
	s.bootTime = s.now

	// Forward-progress guard: a period that retired no instructions.
	s.deriveLedger()
	if s.res.Instructions == s.instrAtBoot {
		s.noProgress++
		if s.noProgress >= 8 {
			s.abort(fmt.Errorf("%d consecutive outages retired no instructions (design %s, trace %s): %w",
				s.noProgress, s.design.Name(), s.res.Trace, ErrNoProgress))
		}
	} else {
		s.noProgress = 0
	}
	s.instrAtBoot = s.res.Instructions
}

// forceVoltage sets the capacitor outside the event loop — the collapse
// to VMin at an outage and the recharge to Von — and samples the
// recorder's voltage gauge there, as step and settle do at every settle.
func (s *Simulator) forceVoltage(v float64) {
	s.cap.SetVoltage(v)
	if s.cfg.Obs != nil {
		s.cfg.Obs.VoltageGauge().Set(s.cap.Voltage())
	}
}

// checkpointLines reads the design's cumulative flushed-line counter,
// or -1 when the design does not expose one. Paired with linesDelta it
// attributes flushed lines to individual checkpoints for the recorder.
func (s *Simulator) checkpointLines() int64 {
	if s.cfg.Obs == nil {
		return -1 // not recording; skip the ExtraStats copy
	}
	if es, ok := s.design.(ExtraStatser); ok {
		return int64(es.ExtraStats().CheckpointLines)
	}
	return -1
}

// linesDelta converts a checkpointLines snapshot into the lines flushed
// since it was taken (-1 when unknown).
func (s *Simulator) linesDelta(before int64) int {
	if before < 0 {
		return -1
	}
	return int(s.checkpointLines() - before)
}

func (s *Simulator) abort(err error) {
	panic(simAbort{err})
}
