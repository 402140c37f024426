package expt

import (
	"strings"

	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Section 3.3 discussion ("a WTCache with a large write-back buffer
// can also behave like WL-Cache ... the alternative design would be
// inferior") and the NVSRAM-variant rows of Table 1, measured.

func sec33(ctx Context) (string, error) {
	var b strings.Builder
	b.WriteString("Section 3.3: the write-buffer alternative, speedup vs NVSRAM(ideal)\n")
	b.WriteString("(the paper argues WT+buffer loses on CAM cost, reserve size and load\n")
	b.WriteString("critical path; WL-Cache's DirtyQueue is off the load path and coalesces\n")
	b.WriteString("whole lines)\n\n")
	t := stats.NewTable("", "VCache-WT", "WT+buffer(8)", "WL-Cache")
	if err := bySource(ctx, t, KindVCacheWT, KindWTBuffer, KindWL); err != nil {
		return "", err
	}
	b.WriteString(t.String())
	return b.String(), nil
}

func nvsramVariants(ctx Context) (string, error) {
	t := stats.NewTable("NVSRAM variants, gmean speedup vs NVSRAM(ideal)", "NVSRAM(full)", "NVSRAM(pract)", "WL-Cache")
	if err := bySource(ctx, t, KindNVSRAMFull, KindNVSRAMPractical, KindWL); err != nil {
		return "", err
	}
	out := t.String()
	out += "\n(Table 1 expects: full <= ideal under failures — it checkpoints the whole\n"
	out += "cache every outage; practical in the middle — NV-way hits are slow and the\n"
	out += "eager NV write-backs add traffic, but its reserve is only medium.)\n"
	return out, nil
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
