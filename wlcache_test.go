package wlcache_test

import (
	"testing"

	"wlcache"
	"wlcache/internal/expt"
)

// TestPublicAPIQuickstart exercises the facade the README documents.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := wlcache.DefaultSimConfig()
	cfg.Trace = wlcache.Trace(wlcache.Trace1)
	cfg.CheckInvariants = true
	s, err := wlcache.NewSimulator(cfg, wlcache.KindWL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("api", func(m wlcache.Machine) uint32 {
		var h uint32
		for i := 0; i < 5000; i++ {
			a := uint32(0x1000 + (i%512)*4)
			m.Store32(a, uint32(i))
			h ^= m.Load32(a)
			m.Compute(10)
		}
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.ExecTime == 0 {
		t.Fatal("empty result")
	}
}

// TestPublicAPIDesigns builds every design kind through NewSimulator
// and runs a short program on each.
func TestPublicAPIDesigns(t *testing.T) {
	var sums []uint32
	for _, kind := range expt.AllKinds() {
		s, err := wlcache.NewSimulator(wlcache.DefaultSimConfig(), kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := s.Run(string(kind), func(m wlcache.Machine) uint32 {
			h := uint32(0)
			for i := 0; i < 2000; i++ {
				a := uint32(0x2000 + (i%128)*4)
				m.Store32(a, uint32(i)^h)
				h = m.Load32(a) ^ h<<1
				m.Compute(5)
			}
			return h
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sums = append(sums, res.Checksum)
	}
	for _, s := range sums[1:] {
		if s != sums[0] {
			t.Fatal("designs disagree on the program result (without power failures!)")
		}
	}
}

// TestPublicAPIUnknownKind: an unknown kind is an error, not a panic.
func TestPublicAPIUnknownKind(t *testing.T) {
	s, err := wlcache.NewSimulator(wlcache.DefaultSimConfig(), wlcache.Kind("bogus"))
	if err == nil || s != nil {
		t.Fatalf("NewSimulator(bogus) = %v, %v; want nil and an error", s, err)
	}
}

// TestPublicAPIWorkloads lists and runs a paper benchmark.
func TestPublicAPIWorkloads(t *testing.T) {
	if len(wlcache.Workloads()) != 23 {
		t.Fatalf("Workloads() = %d entries", len(wlcache.Workloads()))
	}
	w, ok := wlcache.WorkloadByName("dijkstra")
	if !ok {
		t.Fatal("dijkstra missing")
	}
	s, err := wlcache.NewSimulator(wlcache.DefaultSimConfig(), wlcache.KindWL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(w.Name, func(m wlcache.Machine) uint32 { return w.Run(m, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum == 0 {
		t.Fatal("suspicious zero checksum")
	}
}

// TestTraceAccessors covers the trace facade.
func TestTraceAccessors(t *testing.T) {
	if wlcache.Trace(wlcache.NoFailures) != nil {
		t.Fatal("NoFailures must have nil trace")
	}
	for _, src := range []wlcache.Source{wlcache.Trace1, wlcache.Trace2, wlcache.Trace3, wlcache.Solar, wlcache.Thermal} {
		if tr := wlcache.Trace(src); tr == nil || tr.Mean() <= 0 {
			t.Fatalf("trace %s unusable", src)
		}
	}
}
