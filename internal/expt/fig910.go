package expt

import (
	"fmt"
	"math"

	"wlcache/internal/cache"
	"wlcache/internal/power"
	"wlcache/internal/stats"
)

// Figure 9: per-application sensitivity to maxline (2..8) under the
// FIFO and LRU cache replacement policies, Power Trace 1, normalized
// to NVSRAM(ideal).
//
// Figure 10(a): cache-size sweep (128 B .. 4 KB), Power Trace 1.
// Figure 10(b): capacitor-size sweep (100 nF .. 1 mF), Power Trace 1,
// absolute execution time.

var fig9Maxlines = []int{2, 4, 6, 8}

func fig9(ctx Context) (Report, error) {
	var cols []string
	var variants []cell
	for _, pol := range []cache.ReplacementPolicy{cache.FIFO, cache.LRU} {
		for _, ml := range fig9Maxlines {
			// Static thresholds isolate the maxline effect, as in the
			// paper's sensitivity study.
			cols = append(cols, fmt.Sprintf("%s/m%d", pol, ml))
			variants = append(variants, cell{kind: KindWLFixed, opts: Options{CachePolicy: pol, Maxline: ml}, src: power.Trace1})
		}
	}
	ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: power.Trace1}, variants...)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: WL-Cache speedup vs NVSRAM(ideal), Power Trace 1, by maxline", cols...)
	for i, wl := range ctx.Workloads {
		t.Add(wl, rowOf(ratios, i)...)
	}
	t.Add("avg(gmean)", gmeans(ratios)...)
	return Report{t}, nil
}

func fig10a(ctx Context) (Report, error) {
	kinds := []Kind{KindVCacheWT, KindReplay, KindWL}
	t := stats.NewTable("Figure 10(a): gmean speedup vs NVSRAM(ideal) at same size, Power Trace 1",
		"VCache-WT", "ReplayCache", "WL-Cache")
	for _, size := range []int{128, 256, 512, 1024, 2048, 4096} {
		geo := cache.Geometry{SizeBytes: size, Ways: 2, LineBytes: 64}
		if size/geo.Ways < geo.LineBytes {
			geo.Ways = 1 // 128 B direct-mapped: 2 lines
		}
		opts := Options{Geometry: geo}
		ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, opts: opts, src: power.Trace1},
			kindCells(power.Trace1, opts, kinds...)...)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%dB", size), gmeans(ratios)...)
	}
	return Report{t}, nil
}

func fig10b(ctx Context) (Report, error) {
	caps := []struct {
		label string
		f     float64
	}{
		{"100nF", 100e-9}, {"344nF", 344e-9}, {"1uF", 1e-6},
		{"10uF", 10e-6}, {"100uF", 100e-6}, {"500uF", 500e-6}, {"1mF", 1e-3},
	}
	kinds := []Kind{KindVCacheWT, KindReplay, KindNVSRAM, KindWL}
	colNames := []string{"VCache-WT", "ReplayCache", "NVSRAM(ideal)", "WL-Cache"}
	t := stats.NewTable("Figure 10(b): geometric-mean execution time (s) by capacitor size, Power Trace 1", colNames...)
	for _, c := range caps {
		rows, err := sweep(ctx, onCapacitor(c.f, kinds...)...)
		if err != nil {
			return nil, err
		}
		times := make([][]float64, len(kinds))
		for _, row := range rows {
			for ki, r := range row {
				if r.ExecTime <= 0 {
					// Design infeasible on this capacitor: its JIT
					// reserve cannot be charged below VMax.
					times[ki] = append(times[ki], math.NaN())
				} else {
					times[ki] = append(times[ki], r.Seconds())
				}
			}
		}
		row := make([]float64, len(kinds))
		for ki := range kinds {
			row[ki] = gmeanOrNaN(times[ki])
		}
		t.Add(c.label, row...)
	}
	return Report{t}, nil
}
