package expt

import (
	"fmt"
	"strings"

	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// Experiment "related": §7/Table 3 argue that prior eager write-back
// caches are "not applicable to energy harvesting systems" because
// they bound nothing: the JIT reserve must still cover the whole
// cache. This experiment measures that argument — EagerWB cannot even
// charge its reserve on the paper's default 1 uF capacitor, and on a
// capacitor big enough to hold it, WL-Cache still wins.

func relatedExperiment(ctx Context) (string, error) {
	var b strings.Builder
	b.WriteString("Eager write-back (Lee et al. [32]) vs WL-Cache:\n\n")
	for _, cap := range []struct {
		label string
		f     float64
	}{{"1uF (paper default)", 1e-6}, {"22uF", 22e-6}} {
		var cells []cell
		for _, wl := range ctx.Workloads {
			for _, k := range []Kind{KindWL, KindEagerWB} {
				cf := cap.f
				cells = append(cells, cell{kind: k, wl: wl, src: power.Trace1,
					simFn: func(s *sim.Config) { s.CapacitorF = cf }, optional: true})
			}
		}
		results, err := runCells(ctx, cells)
		if err != nil {
			return "", err
		}
		var wlT, egT []float64
		egInfeasible := false
		for i := range ctx.Workloads {
			if r := results[2*i]; r.ExecTime > 0 {
				wlT = append(wlT, r.Seconds())
			}
			if r := results[2*i+1]; r.ExecTime > 0 {
				egT = append(egT, r.Seconds())
			} else {
				egInfeasible = true
			}
		}
		fmt.Fprintf(&b, "  %s:\n", cap.label)
		if len(wlT) > 0 {
			fmt.Fprintf(&b, "    WL-Cache gmean exec %.3f ms\n", 1e3*gmeanOrNaN(wlT))
		} else {
			b.WriteString("    WL-Cache infeasible\n")
		}
		if egInfeasible {
			b.WriteString("    EagerWB INFEASIBLE: its unbounded dirty set needs a whole-cache\n")
			b.WriteString("    reserve that this capacitor cannot hold below Vmax\n")
		} else {
			fmt.Fprintf(&b, "    EagerWB  gmean exec %.3f ms\n", 1e3*gmeanOrNaN(egT))
		}
	}
	b.WriteString("\n(WL-Cache turns the same eager-cleaning idea into a hard maxline bound,\n")
	b.WriteString("which is what shrinks the reserve to DirtyQueue size.)\n")
	return b.String(), nil
}
