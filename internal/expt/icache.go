package expt

import (
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
)

// Experiment "icache": Table 2 lists L1 instruction and data caches;
// the default simulator folds instruction fetch into the pipeline
// cost (accurate whenever the I-cache hits at SRAM speed). This
// experiment turns the explicit I-cache model on, which charges each
// design its real fetch technology — a cacheless NVP fetches every
// instruction from NVM, NVCache-WB fetches from slow NV cells, the
// NVSRAM variants restore warm, the volatile designs refill after
// every outage — and shows how the design gaps widen.

// ICacheFor returns the instruction-path model matching a design kind.
func ICacheFor(kind Kind) *sim.ICacheModel {
	switch kind {
	case KindNoCache:
		return sim.NoICache()
	case KindNVCache:
		return sim.NVICache()
	case KindNVSRAM, KindNVSRAMFull, KindNVSRAMPractical:
		return sim.NVSRAMICache()
	default:
		return sim.SRAMICache()
	}
}

func icacheExperiment(ctx Context) (Report, error) {
	kinds := []Kind{KindNoCache, KindNVCache, KindVCacheWT, KindReplay, KindWL}
	cols := []string{"NoCache", "NVCache-WB", "VCache-WT", "ReplayCache", "WL-Cache"}
	t := stats.NewTable("", cols...)
	for _, modeled := range []bool{false, true} {
		mk := func(k Kind) cell {
			c := cell{kind: k, src: power.Trace1}
			if modeled {
				c.simFn = func(s *sim.Config) { s.ICache = ICacheFor(k) }
			}
			return c
		}
		variants := make([]cell, len(kinds))
		for i, k := range kinds {
			variants[i] = mk(k)
		}
		ratios, _, err := speedups(ctx, mk(KindNVSRAM), variants...)
		if err != nil {
			return nil, err
		}
		label := "I-fetch folded (default)"
		if modeled {
			label = "I-fetch modeled"
		}
		t.Add(label, gmeans(ratios)...)
	}
	return Report{
		text("Instruction-fetch modeling (extension; values are gmean speedup vs\n" +
			"NVSRAM(ideal) under the same I-cache assumption):\n\n"),
		t,
		text("\n(The cacheless NVP and the NV cache pay their slow instruction path;\n" +
			"the volatile designs additionally refill the I-cache after every outage.)\n"),
	}, nil
}
