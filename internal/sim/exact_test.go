package sim

import (
	"math"
	"testing"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
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
// energy (CacheRead) and core energy (Compute).
type exactReplay struct {
	t          *testing.T
	cfg        Config
	cap        *energy.Capacitor
	cur        *power.Cursor
	perInstrPS int64
	instrE     float64
	leakW      float64
	vb         float64
	now        int64
	res        Result
	after      []exactState // the state after each program op
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

func (r *exactReplay) event(to int64, eb energy.Breakdown, guard bool) {
	eb.Leak += r.leakW * float64(to-r.now) / 1e12
	h := r.cfg.OnHarvestEff * r.cur.Integrate(r.now, to)
	if !r.cap.Step(h, eb.Total(), r.cfg.VMin, guard) {
		r.t.Fatalf("replay: under-voltage at t=%d", to)
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
	von := r.cfg.Von(r.cfg.Vbackup(fixedReserve))
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
	if r.cap.Voltage() >= r.vb {
		return
	}
	r.res.Outages++
	done, eb := fixedCheckpoint(r.now)
	r.res.CheckpointTime += done - r.now
	r.event(done, eb, false)
	r.res.ReserveWasted += r.cap.EnergyAbove(r.cfg.VMin)
	r.cap.SetVoltage(r.cfg.VMin)
	r.recharge()
	done, eb = fixedRestore(r.now)
	r.res.RestoreTime += done - r.now
	r.event(done, eb, true)
	if dt, ieb := r.cfg.ICache.coldRefill(); dt > 0 {
		r.res.RestoreTime += dt
		r.event(r.now+dt, ieb, true)
	}
}

func (r *exactReplay) run(ops []exactOp) {
	r.cap.SetVoltage(r.cfg.VMin)
	r.recharge()
	for _, o := range ops {
		if !o.compute {
			from := r.now
			done, eb := fixedAccessCost(r.now, o.op, o.addr)
			eb.Compute += r.cfg.InstrEnergy
			eb.CacheRead += r.instrE
			r.event(max(r.now+r.perInstrPS, done), eb, true)
			r.res.Instructions++
			r.onEvent(from)
		}
		for n := o.n; n > 0; n -= r.cfg.ComputeChunk {
			run := min(n, r.cfg.ComputeChunk)
			from := r.now
			r.event(r.now+int64(run)*r.perInstrPS, energy.Breakdown{
				CacheRead: float64(run) * r.instrE,
				Compute:   float64(run) * r.cfg.InstrEnergy,
			}, true)
			r.res.Instructions += uint64(run)
			r.onEvent(from)
		}
		r.res.ExecTime = r.now
		r.after = append(r.after, exactState{r.res, r.cap.Voltage()})
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
			cap:        energy.NewCapacitor(cfg.CapacitorF, cfg.VMin, cfg.VMax),
			cur:        power.NewCursor(cfg.Trace),
			perInstrPS: cfg.ICache.FetchLatency, // the fetch outlasts the pipeline slot
			instrE:     cfg.ICache.FetchEnergy,
			leakW:      leakW,
			vb:         cfg.Vbackup(fixedReserve),
		}
		r.run(ops)
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
			got := exactState{res, s.Capacitor().Voltage()}.observables()
			want := r.after[k-1].observables()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("leak %g W, after op %d %+v: %s = %#x, replay %#x",
						leakW, k-1, ops[k-1], got[i].name, got[i].bits, want[i].bits)
				}
			}
		}
	}
}
