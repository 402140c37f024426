package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"wlcache/internal/cache"
	"wlcache/internal/designs"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
	"wlcache/internal/workload"
)

// fixedDesign charges each memory operation a cost derived only from
// the operation and its address, so a test can replay the simulator's
// arithmetic without a cache model. Its accesses touch four breakdown
// categories, its outages two more, and some of its loads complete
// under the pipeline slot while others stall past it.
type fixedDesign struct {
	data  *mem.Store
	leakW float64
}

const (
	fixedCkptTime    = 700_000
	fixedRestoreTime = 900_000
	fixedReserve     = 12e-9
)

func fixedAccessCost(now int64, op isa.Op, addr uint32) (int64, energy.Breakdown) {
	k := float64(addr % 7)
	switch {
	case op == isa.OpStore:
		return now + 3_100, energy.Breakdown{CacheWrite: 0.73e-9 + k*0.037e-9, MemWrite: 4.19e-9}
	case addr%3 == 0: // a miss
		return now + 12_345 + int64(addr%11), energy.Breakdown{CacheRead: 0.51e-9, MemRead: 2.37e-9 + k*0.13e-9}
	default: // a hit, hidden under the pipeline slot
		return now, energy.Breakdown{CacheRead: 0.51e-9 + k*0.011e-9}
	}
}

func fixedCheckpoint(now int64) (int64, energy.Breakdown) {
	return now + fixedCkptTime, energy.Breakdown{MemWrite: 0.3e-9, Checkpoint: 3e-9}
}

func fixedRestore(now int64) (int64, energy.Breakdown) {
	return now + fixedRestoreTime, energy.Breakdown{Restore: 0.6e-9}
}

func (d *fixedDesign) Name() string { return "fixed" }

func (d *fixedDesign) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

func (d *fixedDesign) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	done, c := fixedAccessCost(now, op, addr)
	eb.Add(&c)
	if op == isa.OpStore {
		d.data.Write(addr, val)
		return val, done
	}
	return d.data.Read(addr), done
}

func (d *fixedDesign) Checkpoint(now int64) (int64, energy.Breakdown) { return fixedCheckpoint(now) }
func (d *fixedDesign) Restore(now int64) (int64, energy.Breakdown)    { return fixedRestore(now) }
func (d *fixedDesign) ReserveEnergy() float64                         { return fixedReserve }
func (d *fixedDesign) LeakPower() float64                             { return d.leakW }
func (d *fixedDesign) DurableEqual(*mem.Store) error                  { return nil }

// exactOp is one step of the oracle program: a load, a store, or a
// Compute(n).
type exactOp struct {
	op      isa.Op
	compute bool
	n       int
	addr    uint32
}

// exactOracleProgram mixes loads and stores with Compute blocks of
// every shape the chunk loop distinguishes: empty, shorter than a
// chunk, exactly one chunk, and several chunks plus a remainder.
func exactOracleProgram(chunk int) []exactOp {
	var ops []exactOp
	for i := 0; i < 60; i++ {
		sizes := []int{0, 1 + i%97, chunk, 3*chunk + 5, 2*chunk + i%89}
		ops = append(ops,
			exactOp{op: isa.OpStore, addr: uint32(0x2000 + (i*7%500)*4)},
			exactOp{op: isa.OpLoad, addr: uint32(0x2000 + (i*13%500)*4)},
			exactOp{compute: true, n: sizes[i%len(sizes)]})
	}
	return ops
}

// exactReplay is the seed engine's per-event arithmetic, written out
// independently of the simulator: each event draws its breakdown plus
// leakage (leakW*dt/1e12) through one Capacitor.Step after
// Cursor.Integrate's harvest, and accumulates field by field in event
// order. A Compute chunk is an event whose breakdown holds its fetch
// energy (CacheRead) and core energy (Compute). The design's costs come
// from the caller: the access cost with each access, the checkpoint and
// restore costs from the two functions.
type exactReplay struct {
	t                   *testing.T
	cfg                 Config
	cap                 *energy.Capacitor
	cur                 *power.Cursor
	perInstrPS          int64
	instrE              float64
	leakW               float64
	reserve             float64
	vb                  float64
	checkpoint, restore func(now int64) (int64, energy.Breakdown)
	now                 int64
	res                 Result
}

// start charges the capacitor from VMin to Von, as a run begins. A
// run without a trace has no capacitor work: it starts, and stays, at
// VMax.
func (r *exactReplay) start() {
	r.cap = energy.NewCapacitor(r.cfg.CapacitorF, r.cfg.VMin, r.cfg.VMax)
	if r.cfg.Trace == nil {
		r.cap.SetVoltage(r.cfg.VMax)
		return
	}
	r.cur = power.NewCursor(r.cfg.Trace)
	r.vb = r.cfg.Vbackup(r.reserve)
	r.cap.SetVoltage(r.cfg.VMin)
	r.recharge()
}

// exactState is what the test compares after a program: the result
// fields the per-event arithmetic feeds and the capacitor voltage.
type exactState struct {
	res Result
	v   float64
}

// observables lists the compared fields, floats by their bits.
func (x exactState) observables() []exactObservable {
	e := &x.res.Energy
	f := func(name string, v float64) exactObservable { return exactObservable{name, math.Float64bits(v)} }
	i := func(name string, v int64) exactObservable { return exactObservable{name, uint64(v)} }
	return []exactObservable{
		f("Energy.CacheRead", e.CacheRead), f("Energy.CacheWrite", e.CacheWrite),
		f("Energy.MemRead", e.MemRead), f("Energy.MemWrite", e.MemWrite),
		f("Energy.Compute", e.Compute), f("Energy.Checkpoint", e.Checkpoint),
		f("Energy.Restore", e.Restore), f("Energy.Leak", e.Leak),
		f("ReserveWasted", x.res.ReserveWasted), f("voltage", x.v),
		i("OnTime", x.res.OnTime), i("OffTime", x.res.OffTime),
		i("CheckpointTime", x.res.CheckpointTime), i("RestoreTime", x.res.RestoreTime),
		i("ExecTime", x.res.ExecTime), i("Outages", int64(x.res.Outages)),
		i("Instructions", int64(x.res.Instructions)),
	}
}

type exactObservable struct {
	name string
	bits uint64
}

// diff names the first observable on which got differs from want, or
// returns "" when they agree bit for bit.
func (got exactState) diff(want exactState) string {
	g, w := got.observables(), want.observables()
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("%s = %#x, replay %#x", g[i].name, g[i].bits, w[i].bits)
		}
	}
	return ""
}

// state is the replay's state after the last op.
func (r *exactReplay) state() exactState {
	res := r.res
	res.ExecTime = r.now
	return exactState{res, r.cap.Voltage()}
}

func (r *exactReplay) event(to int64, eb energy.Breakdown, guard bool) {
	eb.Leak += r.leakW * float64(to-r.now) / 1e12
	if r.cur != nil {
		h := r.cfg.OnHarvestEff * r.cur.Integrate(r.now, to)
		if !r.cap.Step(h, eb.Total(), r.cfg.VMin, guard) {
			r.t.Fatalf("replay: under-voltage at t=%d", to)
		}
	}
	e := &r.res.Energy
	e.CacheRead += eb.CacheRead
	e.CacheWrite += eb.CacheWrite
	e.MemRead += eb.MemRead
	e.MemWrite += eb.MemWrite
	e.Compute += eb.Compute
	e.Checkpoint += eb.Checkpoint
	e.Restore += eb.Restore
	e.Leak += eb.Leak
	r.now = to
}

// recharge collapses the capacitor to VMin and waits for the harvest
// to refill it to Von.
func (r *exactReplay) recharge() {
	von := r.cfg.Von(r.cfg.Vbackup(r.reserve))
	need := 0.5 * r.cfg.CapacitorF * (von*von - r.cfg.VMin*r.cfg.VMin)
	dt, ok := r.cfg.Trace.TimeToHarvest(r.now, need)
	if !ok {
		r.t.Fatal("replay: trace never recharges")
	}
	r.res.OffTime += dt
	r.now += dt
	r.cap.SetVoltage(von)
}

// onEvent books an on-period event that began at from and runs the
// outage sequence when the capacitor reached Vbackup.
func (r *exactReplay) onEvent(from int64) {
	r.res.OnTime += r.now - from
	if r.cur == nil || r.cap.Voltage() >= r.vb {
		return
	}
	r.res.Outages++
	done, eb := r.checkpoint(r.now)
	r.res.CheckpointTime += done - r.now
	r.event(done, eb, false)
	r.res.ReserveWasted += r.cap.EnergyAbove(r.cfg.VMin)
	r.cap.SetVoltage(r.cfg.VMin)
	r.recharge()
	done, eb = r.restore(r.now)
	r.res.RestoreTime += done - r.now
	r.event(done, eb, true)
	if dt, ieb := r.cfg.ICache.coldRefill(); dt > 0 {
		r.res.RestoreTime += dt
		r.event(r.now+dt, ieb, true)
	}
}

// access replays one memory operation whose design cost was (done, eb).
func (r *exactReplay) access(done int64, eb energy.Breakdown) {
	from := r.now
	eb.Compute += r.cfg.InstrEnergy
	eb.CacheRead += r.instrE
	r.event(max(r.now+r.perInstrPS, done), eb, true)
	r.res.Instructions++
	r.onEvent(from)
}

// compute replays Compute(n) as events of at most ComputeChunk
// instructions.
func (r *exactReplay) compute(n int) {
	for ; n > 0; n -= r.cfg.ComputeChunk {
		run := min(n, r.cfg.ComputeChunk)
		from := r.now
		r.event(r.now+int64(run)*r.perInstrPS, energy.Breakdown{
			CacheRead: float64(run) * r.instrE,
			Compute:   float64(run) * r.cfg.InstrEnergy,
		}, true)
		r.res.Instructions += uint64(run)
		r.onEvent(from)
	}
}

// TestExactPolicyMatchesSeedReplay pins the exact policy's per-event
// path — accesses and Compute chunks settled alone in voltage space —
// bit for bit against an independent replay of the seed arithmetic,
// across outages, with an instruction cache that stalls fetch and
// refills cold at every boot. A long run would hide a one-ulp
// difference in one event's energy in the rounding of the running
// sums, so the simulator runs every prefix of the program and each is
// compared with the replay's state after that op.
func TestExactPolicyMatchesSeedReplay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace1)
	// A small capacitor makes each event's draw a visible share of its
	// energy: an outage every few chunks.
	cfg.CapacitorF = 20e-9
	cfg.ICache = &ICacheModel{FetchLatency: 1_300, FetchEnergy: 10e-12,
		CodeLines: 4, LineFillTime: 60_000, LineFillEnergy: 0.1e-9}
	ops := exactOracleProgram(cfg.ComputeChunk)

	// Whether a reordered operation changes a rounded result depends on
	// the operands; each leak power makes different event energies
	// differ by an ulp under the orders the seed did not use.
	for _, leakW := range []float64{37.3e-6, 57.97e-6, 29.96e-6} {
		r := &exactReplay{t: t, cfg: cfg,
			perInstrPS: cfg.ICache.FetchLatency, // the fetch outlasts the pipeline slot
			instrE:     cfg.ICache.FetchEnergy,
			leakW:      leakW,
			reserve:    fixedReserve,
			checkpoint: fixedCheckpoint,
			restore:    fixedRestore,
		}
		r.start()
		var after []exactState // the replay's state after each op
		for _, o := range ops {
			if !o.compute {
				r.access(fixedAccessCost(r.now, o.op, o.addr))
			}
			r.compute(o.n)
			after = append(after, r.state())
		}
		if r.res.Outages == 0 {
			t.Fatal("the oracle program must cross at least one outage")
		}
		t.Logf("leak %g W: %d ops, %d outages", leakW, len(ops), r.res.Outages)

		for k := 1; k <= len(ops); k++ {
			nvm := mem.NewNVM(mem.DefaultNVMParams())
			s, err := New(cfg, &fixedDesign{data: mem.NewStore(), leakW: leakW}, nvm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run("oracle", func(m isa.Machine) uint32 {
				for _, o := range ops[:k] {
					switch {
					case o.compute:
						m.Compute(o.n)
					case o.op == isa.OpStore:
						m.Store32(o.addr, o.addr^0x5a5a)
					default:
						m.Load32(o.addr)
					}
				}
				return 0
			})
			if err != nil {
				t.Fatalf("leak %g W, prefix of %d ops: %v", leakW, k, err)
			}
			if d := (exactState{res, s.Capacitor().Voltage()}).diff(after[k-1]); d != "" {
				t.Fatalf("leak %g W, after op %d %+v: %s", leakW, k-1, ops[k-1], d)
			}
		}
	}
}

// designCall is one logged design call: what an access, checkpoint or
// restore beginning at now returned.
type designCall struct {
	kind string // "access", "checkpoint" or "restore"
	now  int64
	done int64
	eb   energy.Breakdown
}

// loggedDesign wraps a non-adaptive design and logs every access,
// checkpoint and restore it answers, in call order.
type loggedDesign struct {
	Design
	t   *testing.T
	log []designCall
}

func (d *loggedDesign) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	if *eb != (energy.Breakdown{}) {
		d.t.Fatalf("the exact policy handed AccessEB a non-zero breakdown at t=%d: %+v", now, *eb)
	}
	v, done := d.Design.AccessEB(now, op, addr, val, eb)
	d.log = append(d.log, designCall{"access", now, done, *eb})
	return v, done
}

func (d *loggedDesign) Checkpoint(now int64) (int64, energy.Breakdown) {
	done, eb := d.Design.Checkpoint(now)
	d.log = append(d.log, designCall{"checkpoint", now, done, eb})
	return done, eb
}

func (d *loggedDesign) Restore(now int64) (int64, energy.Breakdown) {
	done, eb := d.Design.Restore(now)
	d.log = append(d.log, designCall{"restore", now, done, eb})
	return done, eb
}

// next pops the oldest logged call, which must be of the given kind
// and begin at now: the replay asks for the calls the simulator made,
// in the same order and at the same times.
func (d *loggedDesign) next(kind string, now int64) (int64, energy.Breakdown) {
	if len(d.log) == 0 {
		d.t.Fatalf("replay expects a %s at t=%d; the simulator made no such call", kind, now)
	}
	c := d.log[0]
	d.log = d.log[1:]
	if c.kind != kind || c.now != now {
		d.t.Fatalf("replay expects a %s at t=%d; the simulator made a %s at t=%d", kind, now, c.kind, c.now)
	}
	return c.done, c.eb
}

// lockstepMachine runs a kernel on the simulator and, after each of
// its operations, advances the replay by the same operation, charging
// the design costs the simulator was charged, and compares the two.
type lockstepMachine struct {
	t   *testing.T
	sim *Simulator
	d   *loggedDesign
	r   *exactReplay
	ops int
}

func (m *lockstepMachine) Load32(addr uint32) uint32 {
	v := m.sim.Load32(addr)
	m.r.access(m.d.next("access", m.r.now))
	m.check("Load32")
	return v
}

func (m *lockstepMachine) Store32(addr, v uint32) {
	m.sim.Store32(addr, v)
	m.r.access(m.d.next("access", m.r.now))
	m.check("Store32")
}

func (m *lockstepMachine) Compute(n int) {
	m.sim.Compute(n)
	m.r.compute(n)
	m.check(fmt.Sprintf("Compute(%d)", n))
}

func (m *lockstepMachine) check(op string) {
	if len(m.d.log) != 0 {
		m.t.Fatalf("op %d %s: the replay did not expect the simulator's %s at t=%d",
			m.ops, op, m.d.log[0].kind, m.d.log[0].now)
	}
	// The simulator derives its ledger where it is read; the replay
	// books it per event.
	m.sim.deriveLedger()
	got := exactState{m.sim.res, m.sim.cap.Voltage()}
	got.res.ExecTime = m.sim.now
	if d := got.diff(m.r.state()); d != "" {
		m.t.Fatalf("op %d %s: %s", m.ops, op, d)
	}
	m.ops++
}

// replayInLockstep runs the kernel on design (built over nvm) under
// cfg, with the replay advanced after each of its operations, and
// returns the run's result.
func replayInLockstep(t *testing.T, cfg Config, design Design, nvm *mem.NVM, kernel string) Result {
	t.Helper()
	d := &loggedDesign{Design: design, t: t}
	s, err := New(cfg, d, nvm)
	if err != nil {
		t.Fatal(err)
	}
	r := &exactReplay{t: t, cfg: cfg,
		perInstrPS: max(cfg.CyclePS, cfg.ICache.FetchLatency),
		instrE:     cfg.ICache.FetchEnergy,
		leakW:      design.LeakPower(),
		reserve:    design.ReserveEnergy(),
		checkpoint: func(now int64) (int64, energy.Breakdown) { return d.next("checkpoint", now) },
		restore:    func(now int64) (int64, energy.Breakdown) { return d.next("restore", now) },
	}
	r.start()
	m := &lockstepMachine{t: t, sim: s, d: d, r: r}
	w, ok := workload.ByName(kernel)
	if !ok {
		t.Fatalf("no kernel %q", kernel)
	}
	res, err := s.Run(w.Name, func(isa.Machine) uint32 { return w.Run(m, 1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d ops, %d outages", kernel, m.ops, res.Outages)
	return res
}

// TestExactPolicyMatchesSeedReplayOnRealDesign is the per-event pin on
// a real design: VCache-WT runs a real kernel under a real trace.
// Every design call is logged, and after every memory operation and
// Compute block the replay, charged the logged costs, must agree with
// the simulator bit for bit. Sums over a whole run absorb a one-ulp
// slip in one event, and so does the voltage unless the event draws a
// visible share of the capacitor's energy; hence the 12 nF capacitor,
// with JIT costs scaled down to fit it.
//
// Whether a slip changes a rounded result at all depends on the
// operands, and a kernel issues Compute blocks of only a few sizes and
// accesses of a few costs. VCache-WT takes its array technology as a
// parameter, so the subtests vary the leakage power, which enters
// every event's draw, and the fetch cost, which enters every chunk's.
// On these four, each of three one-ulp slips in the exact path fails
// at least one: a chunk drawing (leak+compute)+fetch, a chunk's leak
// computed as leakW/1e12*dt, and an access total summed Leak-first.
func TestExactPolicyMatchesSeedReplayOnRealDesign(t *testing.T) {
	jit := energy.JITCosts{RegCheckpointTime: 500_000, RegCheckpointEnergy: 1e-9,
		RestoreTime: 1_000_000, RestoreEnergy: 2e-9, BaseReserve: 4e-9}
	for _, leakW := range []float64{0.41e-3, 0.53e-3} {
		for _, ic := range []*ICacheModel{NVSRAMICache(), NVICache()} {
			t.Run(fmt.Sprintf("leak=%gW,fetch=%dps", leakW, ic.FetchLatency), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Trace = power.Get(power.Trace1)
				cfg.CapacitorF = 12e-9
				cfg.ICache = ic
				tech := cache.SRAMTech()
				tech.Leakage = leakW
				nvm := mem.NewNVM(mem.DefaultNVMParams())
				d := designs.NewVCacheWT(cache.DefaultGeometry(), tech, cache.LRU, jit, nvm)
				if res := replayInLockstep(t, cfg, d, nvm, "adpcmencode"); res.Outages < 20 {
					t.Fatalf("%d outages; the run must cross many", res.Outages)
				}
			})
		}
	}
}

// TestAbortedRunLedger pins the ledger of a run whose kernel panics
// after k operations. The simulator books neither OnTime nor
// Instructions per event, so Run must derive both on its recover path:
// the partial Result of the *PanicError must hold what the replay,
// which books them per event, holds after the same k operations. It
// covers the exact tier with a trace (outages included) and without
// one, and the fast tier, whose windows book nothing either.
func TestAbortedRunLedger(t *testing.T) {
	const leakW = 37.3e-6
	type ledger struct {
		onTime       int64
		instructions uint64
	}
	for _, tc := range []struct {
		name   string
		tier   Tier
		traced bool
	}{
		{"exact/traced", TierExact, true},
		{"exact/untraced", TierExact, false},
		{"fast/traced", TierFast, true},
		{"fast/untraced", TierFast, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Tier = tc.tier
			cfg.CapacitorF = 20e-9 // an outage every few chunks
			if tc.traced {
				cfg.Trace = power.Get(power.Trace1)
			}
			ops := exactOracleProgram(cfg.ComputeChunk)
			r := &exactReplay{t: t, cfg: cfg,
				perInstrPS: cfg.CyclePS,
				leakW:      leakW,
				reserve:    fixedReserve,
				checkpoint: fixedCheckpoint,
				restore:    fixedRestore,
			}
			r.start()
			want := []ledger{{r.res.OnTime, r.res.Instructions}} // after k ops
			for _, o := range ops {
				if !o.compute {
					r.access(fixedAccessCost(r.now, o.op, o.addr))
				}
				r.compute(o.n)
				want = append(want, ledger{r.res.OnTime, r.res.Instructions})
			}
			if tc.traced && r.res.Outages == 0 {
				t.Fatal("the oracle program must cross at least one outage")
			}

			type kernelPanic struct{}
			for k := range want {
				nvm := mem.NewNVM(mem.DefaultNVMParams())
				s, err := New(cfg, &fixedDesign{data: mem.NewStore(), leakW: leakW}, nvm)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run("oracle", func(m isa.Machine) uint32 {
					for _, o := range ops[:k] {
						switch {
						case o.compute:
							m.Compute(o.n)
						case o.op == isa.OpStore:
							m.Store32(o.addr, o.addr^0x5a5a)
						default:
							m.Load32(o.addr)
						}
					}
					panic(kernelPanic{})
				})
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Value != (kernelPanic{}) {
					t.Fatalf("panic after %d ops: err = %v, want the kernel's *PanicError", k, err)
				}
				if got := (ledger{res.OnTime, res.Instructions}); got != want[k] {
					t.Fatalf("panic after %d ops: OnTime, Instructions = %d, %d; booked per event: %d, %d",
						k, got.onTime, got.instructions, want[k].onTime, want[k].instructions)
				}
			}
		})
	}
}
