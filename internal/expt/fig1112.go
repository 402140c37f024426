package expt

import (
	"wlcache/internal/cache"
	"wlcache/internal/power"
)

// Figures 11 and 12: adaptive threshold management vs the best static
// maxline per application (§6.6), for FIFO and LRU cache replacement,
// under Power Traces 1 and 2, normalized to NVSRAM(ideal).

func figAdaptive(ctx Context, src power.Source, title string) (Report, error) {
	pols := []cache.ReplacementPolicy{cache.LRU, cache.FIFO}

	// Per cache policy: the static runs across the maxline grid (their
	// per-app best is "Best"), then the adaptive run ("Adap").
	var variants []cell
	for _, pol := range pols {
		for _, ml := range fig9Maxlines {
			variants = append(variants, cell{kind: KindWLFixed, opts: Options{CachePolicy: pol, Maxline: ml}, src: src})
		}
		variants = append(variants, cell{kind: KindWL, opts: Options{CachePolicy: pol}, src: src})
	}
	ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, variants...)
	if err != nil {
		return nil, err
	}
	// The largest speedup is the fastest static run: dividing by a
	// positive time is monotone, so this is base/min(time) bit for bit.
	var cols [][]float64
	for len(ratios) > 0 {
		static, adap := ratios[:len(fig9Maxlines)], ratios[len(fig9Maxlines)]
		best := append([]float64(nil), static[0]...)
		for _, rs := range static[1:] {
			for i, r := range rs {
				best[i] = max(best[i], r)
			}
		}
		cols = append(cols, best, adap)
		ratios = ratios[len(fig9Maxlines)+1:]
	}
	t := speedupTable(title+": WL-Cache adaptive vs best static, speedup over NVSRAM(ideal)", ctx.Workloads,
		[]string{"LRU(Best)", "LRU(Adap)", "FIFO(Best)", "FIFO(Adap)"}, cols)
	return Report{t}, nil
}
