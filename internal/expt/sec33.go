package expt

import (
	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Section 3.3 discussion ("a WTCache with a large write-back buffer
// can also behave like WL-Cache ... the alternative design would be
// inferior") and the NVSRAM-variant rows of Table 1, measured.

func sec33(ctx Context) (Report, error) {
	t := stats.NewTable("", "VCache-WT", "WT+buffer(8)", "WL-Cache")
	if err := bySource(ctx, t, KindVCacheWT, KindWTBuffer, KindWL); err != nil {
		return nil, err
	}
	return Report{text("Section 3.3: the write-buffer alternative, speedup vs NVSRAM(ideal)\n" +
		"(the paper argues WT+buffer loses on CAM cost, reserve size and load\n" +
		"critical path; WL-Cache's DirtyQueue is off the load path and coalesces\n" +
		"whole lines)\n\n"), t}, nil
}

func nvsramVariants(ctx Context) (Report, error) {
	t := stats.NewTable("NVSRAM variants, gmean speedup vs NVSRAM(ideal)", "NVSRAM(full)", "NVSRAM(pract)", "WL-Cache")
	if err := bySource(ctx, t, KindNVSRAMFull, KindNVSRAMPractical, KindWL); err != nil {
		return nil, err
	}
	return Report{t, text("\n(Table 1 expects: full <= ideal under failures — it checkpoints the whole\n" +
		"cache every outage; practical in the middle — NV-way hits are slow and the\n" +
		"eager NV write-backs add traffic, but its reserve is only medium.)\n")}, nil
}

// bySource adds one row to t per power source (no failure, tr1, tr2):
// each kind's gmean speedup over NVSRAM(ideal).
func bySource(ctx Context, t *stats.Table, kinds ...Kind) error {
	for _, src := range []power.Source{power.None, power.Trace1, power.Trace2} {
		ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, kindCells(src, Options{}, kinds...)...)
		if err != nil {
			return err
		}
		label := "no failure"
		if src != power.None {
			label = "trace " + string(src)
		}
		t.Add(label, gmeans(ratios)...)
	}
	return nil
}
