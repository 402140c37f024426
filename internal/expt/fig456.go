package expt

import (
	"fmt"

	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Figures 4, 5 and 6: per-benchmark speedup of NVCache-WB, VCache-WT,
// ReplayCache and WL-Cache normalized to NVSRAM(ideal), without power
// failures and under Power Traces 1 and 2.

// figDesigns are the plotted designs in the figures' legend order.
var figDesigns = []struct {
	col  string
	kind Kind
}{
	{"NVCache-WB", KindNVCache},
	{"VCache-WT", KindVCacheWT},
	{"ReplayCache", KindReplay},
	{"WL-Cache", KindWL},
}

func figSpeedups(ctx Context, src power.Source, title string) (string, error) {
	cols := make([]string, len(figDesigns))
	variants := make([]cell, len(figDesigns))
	for i, d := range figDesigns {
		cols[i] = d.col
		variants[i] = cell{kind: d.kind, src: src}
	}
	ratios, results, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, variants...)
	if err != nil {
		return "", err
	}
	out := speedupTable(title+", speedup over NVSRAM(ideal)", ctx.Workloads, cols, ratios).String()
	chart := stats.NewBarChart("\ngmean(Total) speedup over NVSRAM(ideal):")
	chart.RefValue = 1.0
	for i, g := range gmeans(ratios) {
		chart.Add(cols[i], g)
	}
	chart.Add("NVSRAM(ideal)", 1.0)
	out += chart.String()
	if src != power.None {
		var totalOut uint64
		for _, row := range results {
			for _, r := range row {
				totalOut += r.Outages
			}
		}
		out += fmt.Sprintf("\n(avg outages per run: %.1f)\n", float64(totalOut)/float64(len(ctx.Workloads)*(1+len(figDesigns))))
	}
	return out, nil
}
