package expt

import (
	"fmt"
	"strings"

	"wlcache/internal/energy"
	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Figure 13(a): gmean speedup vs NVSRAM(ideal) across power sources
// (three RF traces, solar, thermal), including the dynamic-adaptation
// variant WL-Cache(dyn).
//
// Figure 13(b): energy-consumption breakdown by subsystem under Power
// Trace 1, normalized to NVSRAM(ideal)'s total.

func fig13a(ctx Context) (Report, error) {
	kinds := []Kind{KindVCacheWT, KindReplay, KindWL, KindWLDyn}
	cols := []string{"VCache-WT", "ReplayCache", "WL-Cache", "WL-Cache(dyn)"}
	t := stats.NewTable("Figure 13(a): gmean speedup vs NVSRAM(ideal) by power source", cols...)
	outages := map[power.Source]float64{}
	for _, src := range power.Sources() {
		ratios, results, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, kindCells(src, Options{}, kinds...)...)
		if err != nil {
			return nil, err
		}
		var out uint64
		for _, row := range results {
			out += row[0].Outages
		}
		outages[src] = float64(out) / float64(len(ctx.Workloads))
		t.Add(string(src), gmeans(ratios)...)
	}
	chart := stats.NewBarChart("\nWL-Cache gmean speedup by power source:")
	chart.RefValue = 1.0
	for _, src := range power.Sources() {
		if v, ok := t.Value(string(src), "WL-Cache"); ok {
			chart.Add(string(src), v)
		}
	}
	var b strings.Builder
	b.WriteString("\nAverage outages per benchmark (NVSRAM baseline):\n")
	for _, src := range power.Sources() {
		fmt.Fprintf(&b, "  %-8s %.0f\n", src, outages[src])
	}
	return Report{t, chart, text(b.String())}, nil
}

func fig13b(ctx Context) (Report, error) {
	kinds := []Kind{KindNVCache, KindVCacheWT, KindNVSRAM, KindWL}
	cols := []string{"Cache(read)", "Cache(write)", "Mem(read)", "Mem(write)", "Compute", "JIT(ckpt+rs)", "Leak", "Total"}
	t := stats.NewTable("Figure 13(b): energy breakdown under Power Trace 1, % of NVSRAM(ideal) total", cols...)
	rows, err := sweep(ctx, kindCells(power.Trace1, Options{}, kinds...)...)
	if err != nil {
		return nil, err
	}
	// Sum energies per design over all benchmarks; normalize to the
	// NVSRAM total (index 2 in kinds).
	sums := make([]energy.Breakdown, len(kinds))
	for _, row := range rows {
		for ki := range row {
			sums[ki].Add(&row[ki].Energy)
		}
	}
	baseTotal := sums[2].Total()
	rowNames := []string{"NVCache-WB", "VCache-WT", "NVSRAM(ideal)", "WL-Cache"}
	for ki, rn := range rowNames {
		s := &sums[ki]
		t.Add(rn,
			100*s.CacheRead/baseTotal, 100*s.CacheWrite/baseTotal, 100*s.MemRead/baseTotal, 100*s.MemWrite/baseTotal,
			100*s.Compute/baseTotal, 100*(s.Checkpoint+s.Restore)/baseTotal, 100*s.Leak/baseTotal, 100*s.Total()/baseTotal)
	}
	return Report{t}, nil
}
