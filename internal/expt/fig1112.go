package expt

import (
	"wlcache/internal/cache"
	"wlcache/internal/power"
)

// Figures 11 and 12: adaptive threshold management vs the best static
// maxline per application (§6.6), for FIFO and LRU cache replacement,
// under Power Traces 1 and 2, normalized to NVSRAM(ideal).

func init() {
	registerExperiment(Experiment{ID: "fig11",
		Title: "Figure 11: adaptive vs best-static WL-Cache, Power Trace 1",
		Run:   func(ctx Context) (string, error) { return figAdaptive(ctx, power.Trace1, "Figure 11 (Power Trace 1)") }})
	registerExperiment(Experiment{ID: "fig12",
		Title: "Figure 12: adaptive vs best-static WL-Cache, Power Trace 2",
		Run:   func(ctx Context) (string, error) { return figAdaptive(ctx, power.Trace2, "Figure 12 (Power Trace 2)") }})
}

func figAdaptive(ctx Context, src power.Source, title string) (string, error) {
	ctx = ctx.normalize()
	names := subsetNames(ctx)
	pols := []cache.ReplacementPolicy{cache.LRU, cache.FIFO}

	// For each benchmark and cache policy: NVSRAM baseline, the static
	// runs across the maxline grid (their per-app best is "Best"), and
	// the adaptive run ("Adap").
	var cells []cell
	for _, wl := range names {
		cells = append(cells, cell{kind: KindNVSRAM, wl: wl, src: src})
		for _, pol := range pols {
			for _, ml := range fig9Maxlines {
				cells = append(cells, cell{kind: KindWLFixed, opts: Options{CachePolicy: pol, Maxline: ml}, wl: wl, src: src})
			}
			cells = append(cells, cell{kind: KindWL, opts: Options{CachePolicy: pol}, wl: wl, src: src})
		}
	}
	results, err := runCells(ctx, cells)
	if err != nil {
		return "", err
	}
	perPol := len(fig9Maxlines) + 1
	per := 1 + len(pols)*perPol
	cols := []string{"LRU(Best)", "LRU(Adap)", "FIFO(Best)", "FIFO(Adap)"}
	idx := 0
	t := speedupTable(title+": WL-Cache adaptive vs best static, speedup over NVSRAM(ideal)", names, cols,
		func(wl string) (float64, []float64) {
			row := results[idx*per : (idx+1)*per]
			idx++
			base := float64(row[0].ExecTime)
			out := make([]float64, 0, 4)
			for pi := range pols {
				start := 1 + pi*perPol
				best := row[start].ExecTime
				for j := 1; j < len(fig9Maxlines); j++ {
					if tm := row[start+j].ExecTime; tm < best {
						best = tm
					}
				}
				adap := row[start+len(fig9Maxlines)].ExecTime
				out = append(out, float64(best), float64(adap))
			}
			return base, out
		})
	return t.String(), nil
}
