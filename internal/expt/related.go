package expt

import (
	"fmt"
	"strings"
)

// Experiment "related": §7/Table 3 argue that prior eager write-back
// caches are "not applicable to energy harvesting systems" because
// they bound nothing: the JIT reserve must still cover the whole
// cache. This experiment measures that argument — EagerWB cannot even
// charge its reserve on the paper's default 1 uF capacitor, and on a
// capacitor big enough to hold it, WL-Cache still wins.

func relatedExperiment(ctx Context) (Report, error) {
	var b strings.Builder
	b.WriteString("Eager write-back (Lee et al. [32]) vs WL-Cache:\n\n")
	for _, cap := range []struct {
		label string
		f     float64
	}{{"1uF (paper default)", 1e-6}, {"22uF", 22e-6}} {
		rows, err := sweep(ctx, onCapacitor(cap.f, KindWL, KindEagerWB)...)
		if err != nil {
			return nil, err
		}
		var wlT, egT []float64
		egInfeasible := false
		for _, row := range rows {
			if r := row[0]; r.ExecTime > 0 {
				wlT = append(wlT, r.Seconds())
			}
			if r := row[1]; r.ExecTime > 0 {
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
	return Report{text(b.String())}, nil
}
