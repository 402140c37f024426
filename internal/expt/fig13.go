package expt

import (
	"fmt"
	"strings"

	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Figure 13(a): gmean speedup vs NVSRAM(ideal) across power sources
// (three RF traces, solar, thermal), including the dynamic-adaptation
// variant WL-Cache(dyn).
//
// Figure 13(b): energy-consumption breakdown by subsystem under Power
// Trace 1, normalized to NVSRAM(ideal)'s total.

func fig13a(ctx Context) (string, error) {
	kinds := []Kind{KindVCacheWT, KindReplay, KindWL, KindWLDyn}
	cols := []string{"VCache-WT", "ReplayCache", "WL-Cache", "WL-Cache(dyn)"}
	t := stats.NewTable("Figure 13(a): gmean speedup vs NVSRAM(ideal) by power source", cols...)
	var b strings.Builder
	outages := map[power.Source]float64{}
	for _, src := range power.Sources() {
		ratios, results, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, kindCells(src, Options{}, kinds...)...)
		if err != nil {
			return "", err
		}
		var out uint64
		for _, row := range results {
			out += row[0].Outages
		}
		outages[src] = float64(out) / float64(len(ctx.Workloads))
		t.Add(string(src), gmeans(ratios)...)
	}
	b.WriteString(t.String())
	chart := stats.NewBarChart("\nWL-Cache gmean speedup by power source:")
	chart.RefValue = 1.0
	for _, src := range power.Sources() {
		if v, ok := t.Value(string(src), "WL-Cache"); ok {
			chart.Add(string(src), v)
		}
	}
	b.WriteString(chart.String())
	b.WriteString("\nAverage outages per benchmark (NVSRAM baseline):\n")
	for _, src := range power.Sources() {
		fmt.Fprintf(&b, "  %-8s %.0f\n", src, outages[src])
	}
	return b.String(), nil
}

func fig13b(ctx Context) (string, error) {
	kinds := []Kind{KindNVCache, KindVCacheWT, KindNVSRAM, KindWL}
	cols := []string{"Cache(read)", "Cache(write)", "Mem(read)", "Mem(write)", "Compute", "JIT(ckpt+rs)", "Leak", "Total"}
	t := stats.NewTable("Figure 13(b): energy breakdown under Power Trace 1, % of NVSRAM(ideal) total", cols...)
	var cells []cell
	for _, wl := range ctx.Workloads {
		for _, k := range kinds {
			cells = append(cells, cell{kind: k, wl: wl, src: power.Trace1})
		}
	}
	results, err := runCells(ctx, cells)
	if err != nil {
		return "", err
	}
	per := len(kinds)
	// Sum energies per design over all benchmarks; normalize to the
	// NVSRAM total (index 2 in kinds).
	type agg struct{ cr, cw, mr, mw, cp, jit, lk float64 }
	sums := make([]agg, len(kinds))
	for i := range ctx.Workloads {
		for ki := range kinds {
			e := results[per*i+ki].Energy
			s := &sums[ki]
			s.cr += e.CacheRead
			s.cw += e.CacheWrite
			s.mr += e.MemRead
			s.mw += e.MemWrite
			s.cp += e.Compute
			s.jit += e.Checkpoint + e.Restore
			s.lk += e.Leak
		}
	}
	baseTotal := sums[2].cr + sums[2].cw + sums[2].mr + sums[2].mw + sums[2].cp + sums[2].jit + sums[2].lk
	rowNames := []string{"NVCache-WB", "VCache-WT", "NVSRAM(ideal)", "WL-Cache"}
	for ki, rn := range rowNames {
		s := sums[ki]
		total := s.cr + s.cw + s.mr + s.mw + s.cp + s.jit + s.lk
		t.Add(rn,
			100*s.cr/baseTotal, 100*s.cw/baseTotal, 100*s.mr/baseTotal, 100*s.mw/baseTotal,
			100*s.cp/baseTotal, 100*s.jit/baseTotal, 100*s.lk/baseTotal, 100*total/baseTotal)
	}
	return t.String(), nil
}
