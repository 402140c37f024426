package fault

import (
	"errors"
	"testing"

	"wlcache/internal/expt"
	"wlcache/internal/isa"
	"wlcache/internal/sim"
)

// runWith executes a small inline program on one design with the
// given injector installed.
func runWith(t *testing.T, kind expt.Kind, opts expt.Options, inj *Injector,
	program func(m isa.Machine) uint32) (sim.Result, error) {
	t.Helper()
	design, nvm := expt.NewDesign(kind, opts)
	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = true
	if inj != nil {
		cfg.FaultPlan = inj
	}
	s, err := sim.New(cfg, design, nvm)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s.Run("inline", program)
}

// spread stores one word into each of n distinct cache lines and then
// sums them back; the checksum is n*(n+1)/2.
func spread(n int) (func(m isa.Machine) uint32, uint32) {
	prog := func(m isa.Machine) uint32 {
		for i := 0; i < n; i++ {
			m.Store32(uint32(i*64), uint32(i+1))
		}
		var sum uint32
		for i := 0; i < n; i++ {
			sum += m.Load32(uint32(i * 64))
		}
		return sum
	}
	return prog, uint32(n * (n + 1) / 2)
}

// A crash landing right after an asynchronous write-back issues tears
// the in-flight line write; the JIT checkpoint's redundant flush of
// the still-queued line (§5.3) must repair it, so the run recovers
// fully.
func TestTornWritebackRepairedByCheckpoint(t *testing.T) {
	inj := NewInjector(ModeTornWB, 1)
	inj.CrashAtLineWrites(1) // first boundary inside the first WB's persist window

	prog, want := spread(64) // 64 lines >> maxline 2: plenty of async write-backs
	res, err := runWith(t, expt.KindWLFixed, expt.Options{Maxline: 2}, inj, prog)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Checksum != want {
		t.Fatalf("checksum %#x, want %#x", res.Checksum, want)
	}
	if inj.Crashes == 0 {
		t.Fatal("no crash fired")
	}
	if inj.TornWrites == 0 {
		t.Fatal("crash landed inside a write window but tore nothing")
	}
}

// A checkpoint torn on its very first line flush (k=0 of n, zero
// words persisted) loses a dirty line; the post-checkpoint durability
// check must detect it — never silently corrupt.
func TestTornCheckpointDetected(t *testing.T) {
	inj := NewInjector(ModeTornCkpt, 1)
	inj.TearAfter = 0
	inj.TearWords = 0
	inj.CrashAtInstrs(16) // right after the 16th store, line fully dirty

	prog := func(m isa.Machine) uint32 {
		for i := 0; i < 16; i++ {
			m.Store32(uint32(i*4), uint32(0xA0+i)) // one full line, all words nonzero
		}
		return m.Load32(0)
	}
	_, err := runWith(t, expt.KindWLFixed, expt.Options{}, inj, prog)
	if err == nil {
		t.Fatal("torn checkpoint went unnoticed")
	}
	if !errors.Is(err, sim.ErrCrashConsistency) {
		t.Fatalf("error %v does not wrap ErrCrashConsistency", err)
	}
	if inj.TornWrites == 0 {
		t.Fatal("no checkpoint write was torn")
	}
}

// Losing every write-back ACK strands DirtyQueue entries; the §5.4
// lazy stale-entry discard must reclaim them and the run must still
// recover fully — ACK loss is within the hardware contract.
func TestAckLossTolerated(t *testing.T) {
	inj := NewInjector(ModeAckLoss, 7)
	inj.AckDrop = 1.0
	inj.CrashAtInstrs(40, 90)

	prog, want := spread(64)
	res, err := runWith(t, expt.KindWLFixed, expt.Options{Maxline: 2}, inj, prog)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Checksum != want {
		t.Fatalf("checksum %#x, want %#x", res.Checksum, want)
	}
	if inj.DroppedACKs == 0 {
		t.Fatal("no ACK was dropped")
	}
	if res.Extra.DroppedACKs != inj.DroppedACKs {
		t.Fatalf("design counted %d dropped ACKs, injector %d",
			res.Extra.DroppedACKs, inj.DroppedACKs)
	}
	if res.Extra.StaleDQSkips == 0 {
		t.Fatal("stranded DirtyQueue entries were never lazily discarded")
	}
}

// Forced crashes at instruction boundaries are plain outages for a
// sound design: checkpoint, restore, full recovery.
func TestForcedCrashesRecover(t *testing.T) {
	inj := NewInjector(ModeCrash, 1)
	inj.CrashAtInstrs(10, 30, 50) // all within the program's ~64 instructions

	prog, want := spread(32)
	res, err := runWith(t, expt.KindWL, expt.Options{}, inj, prog)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Checksum != want {
		t.Fatalf("checksum %#x, want %#x", res.Checksum, want)
	}
	if inj.Crashes != 3 {
		t.Fatalf("fired %d crashes, want 3", inj.Crashes)
	}
	if res.Outages != 3 {
		t.Fatalf("result counted %d outages, want 3", res.Outages)
	}
}

// The same seed must replay the same faults and the same outcome.
func TestInjectorDeterminism(t *testing.T) {
	run := func() Cell {
		c, err := AuditOne(expt.KindWL, "adpcmencode", ModeAckLoss, 42, 3, 1)
		if err != nil {
			t.Fatalf("AuditOne: %v", err)
		}
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic audit:\n%+v\n%+v", a, b)
	}
}
