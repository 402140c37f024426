package expt

import (
	"fmt"

	"wlcache/internal/cache"
	"wlcache/internal/core"
	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Figure 7: normalized NVM write-traffic increase of WL-Cache over
// NVSRAM(ideal) under Power Trace 1.
//
// Figure 8(a): WL-Cache DirtyQueue replacement policy (FIFO vs LRU),
// gmean speedup vs NVSRAM for no-failure / tr.1 / tr.2.
//
// Figure 8(b): cache set associativity (direct-mapped / 2-way /
// 4-way), gmean speedup vs NVSRAM.

func fig7(ctx Context) (Report, error) {
	rows, err := sweep(ctx, cell{kind: KindNVSRAM, src: power.Trace1}, cell{kind: KindWL, src: power.Trace1})
	if err != nil {
		return nil, err
	}
	traffic := make([]float64, len(ctx.Workloads))
	for i, row := range rows {
		traffic[i] = float64(row[1].NVMTraffic.WriteWords) / float64(row[0].NVMTraffic.WriteWords)
	}
	t := speedupTable("Figure 7: WL-Cache NVM write traffic, normalized to NVSRAM(ideal), Power Trace 1",
		ctx.Workloads, []string{"traffic"}, [][]float64{traffic})
	return Report{t}, nil
}

func fig8a(ctx Context) (Report, error) {
	srcs := []power.Source{power.None, power.Trace1, power.Trace2}
	labels := []string{"no failure", "trace 1", "trace 2"}
	t := stats.NewTable("Figure 8(a): WL-Cache DirtyQueue replacement, gmean speedup vs NVSRAM(ideal)",
		"DQ-FIFO", "DQ-LRU")
	for si, src := range srcs {
		ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: src},
			cell{kind: KindWL, opts: Options{DQPolicy: core.DQFIFO}, src: src},
			cell{kind: KindWL, opts: Options{DQPolicy: core.DQLRU}, src: src})
		if err != nil {
			return nil, err
		}
		t.Add(labels[si], gmeans(ratios)...)
	}
	return Report{t}, nil
}

func fig8b(ctx Context) (Report, error) {
	ways := []int{1, 2, 4}
	t := stats.NewTable("Figure 8(b): WL-Cache set associativity, gmean speedup vs NVSRAM(ideal)", "D-Map.", "2-Way", "4-Way")
	for _, src := range []power.Source{power.Trace1, power.Trace2} {
		variants := make([]cell, len(ways))
		for i, w := range ways {
			geo := cache.DefaultGeometry()
			geo.Ways = w
			variants[i] = cell{kind: KindWL, opts: Options{Geometry: geo}, src: src}
		}
		ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, variants...)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("trace %s", power.Get(src).Name), gmeans(ratios)...)
	}
	return Report{t}, nil
}
