package expt

import (
	"testing"

	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// TestSmokeAllWorkloads runs every workload once on WL-Cache with
// invariant checking, without power failures, and prints the profile
// (instruction counts drive calibration).
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke profile")
	}
	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = true
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(KindWL, Options{}, w.Name, 1, power.None, cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("%-14s instr=%9d loads=%8d stores=%8d onTime=%8.3fms cpi=%.2f sum=%08x",
				w.Name, res.Instructions, res.Loads, res.Stores,
				float64(res.OnTime)/1e9, res.CPI(), res.Checksum)
		})
	}
}

// TestDesignSourcesOutsideExperiments runs, on one short kernel, the
// (design, source) pairs at default options that no experiment and no
// other test reaches. The golden matrix pins every design on
// none/tr1/tr3; Fig. 13(a) runs VCache-WT, ReplayCache, NVSRAM, WL and
// WL-dyn on every trace; Figs. 6 and 12 run NVCache-WB and WL-fixed on
// tr2. That leaves NVCache-WB and WL-fixed on solar and thermal.
func TestDesignSourcesOutsideExperiments(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		src  power.Source
	}{
		{KindNVCache, power.Solar},
		{KindNVCache, power.Thermal},
		{KindWLFixed, power.Solar},
		{KindWLFixed, power.Thermal},
	} {
		if _, err := Run(c.kind, Options{}, "adpcmencode", 1, c.src, sim.DefaultConfig()); err != nil {
			t.Errorf("%s/%s: %v", c.kind, c.src, err)
		}
	}
}
