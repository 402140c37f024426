// Ablation benchmarks for the design choices DESIGN.md §7 calls out
// that no figure covers: the maxline-waterline gap, the checkpoint
// reserve margin, NVFF versus software JIT checkpointing and the
// DirtyQueue capacity. Each reports the simulated execution time of
// the wl design running sha under the home RF trace as exec-ms.
package wlcache_test

import (
	"testing"

	"wlcache"
	"wlcache/internal/core"
	"wlcache/internal/expt"
	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// runOnce executes one (design, workload, trace) cell for ablations.
func runOnce(b *testing.B, kind expt.Kind, opts expt.Options, cfgMut func(*sim.Config)) int64 {
	b.Helper()
	cfg := sim.DefaultConfig()
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	res, err := expt.Run(kind, opts, "sha", 1, power.Trace1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.ExecTime
}

// BenchmarkAblationWaterlineGap sweeps the maxline-waterline gap (the
// ILP window, §3.1): gap 1 is the paper default.
func BenchmarkAblationWaterlineGap(b *testing.B) {
	for _, gap := range []int{1, 2, 3, 5} {
		gap := gap
		b.Run(map[bool]string{true: "gap1-default", false: "gap" + string(rune('0'+gap))}[gap == 1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nvm := wlcache.NewNVM()
				cfg := wlcache.DefaultCacheConfig()
				cfg.Maxline = 6
				cfg.Waterline = 6 - gap
				if cfg.Waterline < 1 {
					cfg.Waterline = 1
				}
				cfg.Adaptive.Mode = core.AdaptOff
				c := wlcache.NewWLCache(cfg, nvm)
				simCfg := wlcache.DefaultSimConfig()
				simCfg.Trace = wlcache.Trace(wlcache.Trace1)
				s, err := wlcache.NewSimulator(simCfg, c, nvm)
				if err != nil {
					b.Fatal(err)
				}
				w, _ := wlcache.WorkloadByName("sha")
				res, err := s.Run(w.Name, func(m wlcache.Machine) uint32 { return w.Run(m, 1) })
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds()*1e3, "exec-ms")
			}
		})
	}
}

// BenchmarkAblationCheckpointMargin sweeps the reserve margin.
func BenchmarkAblationCheckpointMargin(b *testing.B) {
	for _, m := range []float64{1.0, 1.5, 2.0} {
		m := m
		b.Run(map[float64]string{1.0: "m1.0", 1.5: "m1.5", 2.0: "m2.0"}[m], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := runOnce(b, expt.KindWL, expt.Options{}, func(c *sim.Config) { c.CheckpointMargin = m })
				b.ReportMetric(float64(t)/1e9, "exec-ms")
			}
		})
	}
}

// BenchmarkAblationSoftwareJIT compares NVFF-based JIT checkpointing
// with QuickRecall-style software checkpointing (§2.1).
func BenchmarkAblationSoftwareJIT(b *testing.B) {
	for _, sw := range []bool{false, true} {
		sw := sw
		b.Run(map[bool]string{false: "nvff", true: "software"}[sw], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := runOnce(b, expt.KindWL, expt.Options{SoftwareJIT: sw}, nil)
				b.ReportMetric(float64(t)/1e9, "exec-ms")
			}
		})
	}
}

// BenchmarkAblationDQCap sweeps the DirtyQueue hardware size.
func BenchmarkAblationDQCap(b *testing.B) {
	for _, cap := range []int{6, 8, 12, 16} {
		cap := cap
		b.Run(map[int]string{6: "dq6", 8: "dq8-default", 12: "dq12", 16: "dq16"}[cap], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := runOnce(b, expt.KindWL, expt.Options{DQCap: cap, Maxline: 6}, nil)
				b.ReportMetric(float64(t)/1e9, "exec-ms")
			}
		})
	}
}
