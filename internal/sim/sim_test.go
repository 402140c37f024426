package sim

import (
	"strings"
	"testing"

	"wlcache/internal/cache"
	"wlcache/internal/core"
	"wlcache/internal/designs"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/power"
)

func newWL(nvm *mem.NVM) Design {
	cfg := core.DefaultConfig()
	return core.New(cfg, nvm)
}

func newWLStatic(nvm *mem.NVM) Design {
	cfg := core.DefaultConfig()
	cfg.Adaptive.Mode = core.AdaptOff
	return core.New(cfg, nvm)
}

func newBroken(nvm *mem.NVM) Design {
	return designs.NewBrokenVolatileWB(cache.DefaultGeometry(), cache.LRU, energy.DefaultJITCosts(), nvm)
}

// smallProgram touches enough memory and compute to cross several
// power failures on the RF traces.
func smallProgram(m isa.Machine) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 20000; i++ {
		addr := uint32(0x1000 + (i%700)*4)
		m.Store32(addr, uint32(i))
		v := m.Load32(addr)
		h = (h ^ v) * 16777619
		m.Compute(30)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.CyclePS = 0 },
		func(c *Config) { c.ComputeChunk = 0 },
		func(c *Config) { c.CapacitorF = 0 },
		func(c *Config) { c.VMax = c.VMin },
		func(c *Config) { c.VonDelta = 0 },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVbackupVonDerivation(t *testing.T) {
	c := DefaultConfig()
	vb := c.Vbackup(600e-9)
	if vb <= c.VMin || vb >= c.VMax {
		t.Fatalf("Vbackup %g out of range", vb)
	}
	von := c.Von(vb)
	if von <= vb {
		t.Fatal("Von must exceed Vbackup")
	}
	if c.Von(c.VMax) != c.VMax {
		t.Fatal("Von must clamp at VMax")
	}
	// Bigger reserve, higher threshold.
	if c.Vbackup(1200e-9) <= vb {
		t.Fatal("Vbackup not monotone in reserve")
	}
}

func TestRunWithoutTrace(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	s, err := New(DefaultConfig(), newWLStatic(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("small", smallProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 0 {
		t.Fatalf("outages %d without a trace", res.Outages)
	}
	if res.OffTime != 0 || res.CheckpointTime != 0 || res.RestoreTime != 0 {
		t.Fatal("phase times nonzero without failures")
	}
	if res.ExecTime != res.OnTime {
		t.Fatalf("ExecTime %d != OnTime %d", res.ExecTime, res.OnTime)
	}
	wantInstr := uint64(20000 * (2 + 30))
	if res.Instructions != wantInstr {
		t.Fatalf("instructions %d, want %d", res.Instructions, wantInstr)
	}
	if res.Loads != 20000 || res.Stores != 20000 {
		t.Fatalf("loads/stores %d/%d", res.Loads, res.Stores)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.Trace != "none" || res.Workload != "small" {
		t.Fatalf("labels: %q %q", res.Trace, res.Workload)
	}
}

func TestRunWithPowerFailures(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace2)
	cfg.CheckInvariants = true
	s, err := New(cfg, newWLStatic(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("small", smallProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("expected power failures on trace 2")
	}
	if got := res.OnTime + res.OffTime + res.CheckpointTime + res.RestoreTime; got != res.ExecTime {
		t.Fatalf("phase times %d don't sum to ExecTime %d", got, res.ExecTime)
	}
	if res.OffTime == 0 {
		t.Fatal("no recharge time recorded")
	}
	if res.ReserveWasted <= 0 {
		t.Fatal("no reserve waste recorded across outages")
	}
	if res.Extra.CheckpointLines == 0 {
		t.Fatal("JIT checkpoints flushed no lines")
	}
}

func TestChecksumsAgreeAcrossDesignsAndTraces(t *testing.T) {
	var want uint32
	first := true
	for _, src := range []power.Source{power.None, power.Trace1, power.Trace3} {
		for _, build := range []func(*mem.NVM) Design{newWL, newWLStatic} {
			nvm := mem.NewNVM(mem.DefaultNVMParams())
			cfg := DefaultConfig()
			cfg.Trace = power.Get(src)
			cfg.CheckInvariants = true
			s, err := New(cfg, build(nvm), nvm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run("small", smallProgram)
			if err != nil {
				t.Fatalf("src %s: %v", src, err)
			}
			if first {
				want = res.Checksum
				first = false
			} else if res.Checksum != want {
				t.Fatalf("checksum %#x != %#x on %s", res.Checksum, want, src)
			}
		}
	}
}

func TestInvariantCheckCatchesBrokenDesign(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace2)
	cfg.CheckInvariants = true
	s, err := New(cfg, newBroken(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run("small", smallProgram)
	if err == nil {
		t.Fatal("broken volatile WB cache passed the crash-consistency check")
	}
	if !strings.Contains(err.Error(), "crash consistency") && !strings.Contains(err.Error(), "architectural") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAdaptiveReconfiguresAcrossOutages(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace2)
	s, err := New(cfg, newWL(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	// A program with alternating power profiles: NVM-heavy phases
	// drain the capacitor much faster than compute phases, so the
	// measured power-on times swing and the controller reacts (a
	// perfectly uniform program would correctly see no signal).
	res, err := s.Run("phased", func(m isa.Machine) uint32 {
		h := uint32(0)
		for phase := 0; phase < 60; phase++ {
			if phase%2 == 0 {
				for i := 0; i < 3000; i++ {
					m.Store32(uint32(0x1000+(i%4096)*4), uint32(i))
					m.Compute(2)
				}
			} else {
				m.Compute(200_000)
			}
			h = (h ^ uint32(phase)) * 16777619
		}
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages < 6 {
		t.Skip("too few outages to adapt")
	}
	if res.Extra.Reconfigs == 0 {
		t.Fatal("adaptive controller never moved the thresholds")
	}
}

func TestReserveTooLargeRejected(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.CapacitorF = 50e-9 // tiny capacitor cannot hold NVSRAM's reserve
	cfg.Trace = power.Get(power.Trace1)
	d := designs.NewNVSRAM(cache.DefaultGeometry(), cache.LRU, energy.DefaultJITCosts(), designs.DefaultNVSRAMParams(), nvm)
	if _, err := New(cfg, d, nvm); err == nil {
		t.Fatal("unchargeable reserve accepted")
	}
}

// spyPlan is a FaultPlan that never crashes and records how it was
// armed.
type spyPlan struct {
	arms int
	nvm  *mem.NVM
	d    Design
	rec  *obs.Recorder
}

func (p *spyPlan) Arm(nvm *mem.NVM, d Design, rec *obs.Recorder) {
	p.arms++
	p.nvm, p.d, p.rec = nvm, d, rec
}
func (*spyPlan) ShouldCrash(uint64, int64) bool { return false }
func (*spyPlan) CheckpointStart(int64, bool)    {}
func (*spyPlan) CheckpointEnd(int64)            {}

// New is the one place a fault plan is armed: exactly once, on the
// run's own NVM and design, with cfg.Obs (nil when the run is not
// recorded). Without a plan nothing is armed and the run still
// completes.
func TestNewArmsFaultPlanOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   bool
		record bool
	}{
		{"no plan", false, false},
		{"no plan, recorded", false, true},
		{"plan", true, false},
		{"plan, recorded", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nvm := mem.NewNVM(mem.DefaultNVMParams())
			d := newWLStatic(nvm)
			spy := &spyPlan{}
			cfg := DefaultConfig()
			if tc.plan {
				cfg.FaultPlan = spy
			}
			if tc.record {
				cfg.Obs = obs.NewRecorder(obs.RunMeta{Design: d.Name()}, 64)
			}
			s, err := New(cfg, d, nvm)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run("inline", func(m isa.Machine) uint32 {
				m.Store32(0, 7)
				return m.Load32(0)
			}); err != nil {
				t.Fatal(err)
			}
			want := 0
			if tc.plan {
				want = 1
			}
			if spy.arms != want {
				t.Fatalf("Arm called %d times, want %d", spy.arms, want)
			}
			if tc.plan && (spy.nvm != nvm || spy.d != d || spy.rec != cfg.Obs) {
				t.Fatalf("armed with the run's NVM %t, design %t, recorder %t; want all true",
					spy.nvm == nvm, spy.d == d, spy.rec == cfg.Obs)
			}
		})
	}
}

func TestMaxOutagesGuard(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace3)
	cfg.MaxOutages = 2
	s, err := New(cfg, newWLStatic(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("small", smallProgram); err == nil {
		t.Fatal("outage guard did not fire")
	}
}

func TestComputeChunking(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace1)
	s, err := New(cfg, newWLStatic(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("compute", func(m isa.Machine) uint32 {
		m.Compute(5_000_000) // one huge batch still hits voltage checks
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("a 5M-instruction compute batch should span outages")
	}
	if res.Instructions != 5_000_000 {
		t.Fatalf("instructions %d", res.Instructions)
	}
}

func TestNegativeComputeAborts(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	s, err := New(DefaultConfig(), newWLStatic(nvm), nvm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("bad", func(m isa.Machine) uint32 { m.Compute(-1); return 0 }); err == nil {
		t.Fatal("negative compute accepted")
	}
}

func TestResultString(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace1)
	s, _ := New(cfg, newWLStatic(nvm), nvm)
	res, err := s.Run("small", smallProgram)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"exec time", "instructions", "outages", "NVM traffic", "energy", "checksum"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if res.CPI() <= 0 {
		t.Fatal("CPI not positive")
	}
	if res.Seconds() <= 0 {
		t.Fatal("Seconds not positive")
	}
}

func TestEnergyAccountingConservation(t *testing.T) {
	// Total drawn energy must be finite, positive, and the capacitor
	// must end within its legal band.
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	cfg := DefaultConfig()
	cfg.Trace = power.Get(power.Trace1)
	s, _ := New(cfg, newWLStatic(nvm), nvm)
	res, err := s.Run("small", smallProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("nothing drawn")
	}
	v := s.Capacitor().Voltage()
	if v < cfg.VMin-1e-9 || v > cfg.VMax+1e-9 {
		t.Fatalf("final voltage %g out of band", v)
	}
}
