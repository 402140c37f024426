package expt

import (
	"fmt"
	"strings"

	"wlcache/internal/hwcost"
	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// Table 1, Table 2, the §6.2 hardware-cost analysis and the §6.6
// adaptive-statistics paragraph.

func table1(ctx Context) (Report, error) {
	var b strings.Builder
	b.WriteString("Table 1: Hardware complexity and performance comparison (qualitative, from the paper,\n")
	b.WriteString("with this reproduction's measured gmean speedup vs NVSRAM(ideal) under Power Trace 1)\n\n")
	rows := []struct{ name, hw, buf, nvreq, perf string }{
		{"WTCache", "None", "No", "No", "Low"},
		{"NVCache", "Low", "No", "Yes (Large)", "Low"},
		{"NVSRAM(full)", "High", "Large", "Yes (Large)", "High"},
		{"NVSRAM(ideal)", "High+", "Large", "Yes (Large)", "High"},
		{"NVSRAM(practical)", "Medium", "Medium", "Yes (Medium)", "Medium"},
		{"ReplayCache", "None", "Small", "No", "Medium"},
		{"WL-Cache", "Low", "Small", "No", "High"},
	}
	fmt.Fprintf(&b, "%-19s %-8s %-12s %-14s %s\n", "design", "HW cost", "energy buf.", "NV cache req.", "perf.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-19s %-8s %-12s %-14s %s\n", r.name, r.hw, r.buf, r.nvreq, r.perf)
	}
	// Measured column for the designs this repo implements.
	kinds := []Kind{KindVCacheWT, KindNVCache, KindNVSRAMFull, KindNVSRAMPractical, KindReplay, KindWL}
	labels := []string{"WTCache", "NVCache", "NVSRAM(full)", "NVSRAM(practical)", "ReplayCache", "WL-Cache"}
	ratios, _, err := speedups(ctx, cell{kind: KindNVSRAM, src: power.Trace1}, kindCells(power.Trace1, Options{}, kinds...)...)
	if err != nil {
		return nil, err
	}
	b.WriteString("\nMeasured (this reproduction, Power Trace 1, gmean speedup vs NVSRAM(ideal)):\n")
	for ki, g := range gmeans(ratios) {
		fmt.Fprintf(&b, "  %-18s %.3f\n", labels[ki], g)
	}
	b.WriteString("  NVSRAM(ideal)      1.000 (baseline)\n")
	return Report{text(b.String())}, nil
}

func table2(ctx Context) (Report, error) {
	cfg := sim.DefaultConfig()
	var b strings.Builder
	b.WriteString("Table 2: simulation configuration (this reproduction)\n\n")
	fmt.Fprintf(&b, "Processor            %.1f GHz, 1 core, in-order\n", 1000.0/float64(cfg.CyclePS))
	b.WriteString("L1 D cache           8 kB, 2-way, 64 B block (volatile SRAM unless noted)\n")
	b.WriteString("Cache latencies      SRAM 0.3 ns hit / 0.1 ns probe; NVRAM 4 ns read / 40 ns write / 3 ns probe\n")
	b.WriteString("NVM (ReRAM)          word read 40 ns, word write 40 ns (12 ns occupancy),\n")
	b.WriteString("                     line read 60 ns, line write 150 ns (tWR)\n")
	fmt.Fprintf(&b, "Energy buffer        %.0f uF capacitor (default)\n", cfg.CapacitorF*1e6)
	fmt.Fprintf(&b, "Vmin/Vmax            %.1f / %.1f V\n", cfg.VMin, cfg.VMax)
	for _, d := range []struct {
		name string
		kind Kind
	}{{"NVCache", KindNVCache}, {"NVSRAM(ideal)", KindNVSRAM}, {"WL-Cache(maxline=6)", KindWL}} {
		design, _ := NewDesign(d.kind, Options{})
		vb := cfg.Vbackup(design.ReserveEnergy())
		fmt.Fprintf(&b, "%-20s Vbackup %.2f V, Von %.2f V (reserve %.0f nJ)\n",
			d.name, vb, cfg.Von(vb), design.ReserveEnergy()*1e9)
	}
	b.WriteString("Power traces         synthetic tr.1 (home RF), tr.2 (office RF), tr.3 (Mementos RF),\n")
	b.WriteString("                     solar, thermal; stability ordering matches the paper\n")
	return Report{text(b.String())}, nil
}

func hwcostReport(ctx Context) (Report, error) {
	area, dyn, leak, rows := hwcost.WLCacheCost()
	var b strings.Builder
	b.WriteString("Section 6.2: WL-Cache hardware cost at 90 nm (mini-CACTI analytical model)\n\n")
	for _, r := range rows {
		b.WriteString("  " + r.String() + "\n")
	}
	nvLeak := hwcost.NVCacheLeakMW(8192)
	fmt.Fprintf(&b, "\n  total: area %.4f mm^2, dynamic %.4f nJ/access, leakage %.3f mW\n", area, dyn, leak)
	fmt.Fprintf(&b, "  leakage vs 8 kB NV cache (%.2f mW): %.0f%%\n", nvLeak, 100*leak/nvLeak)
	b.WriteString("\n  paper reports: <= 0.005 mm^2, 0.0008 nJ dynamic, 0.1 mW leak (9% of NV cache leak)\n")
	return Report{text(b.String())}, nil
}

func adaptStats(ctx Context) (Report, error) {
	var b strings.Builder
	b.WriteString("Section 6.6: adaptive WL-Cache statistics (averages over benchmarks)\n\n")
	for _, src := range []power.Source{power.Trace1, power.Trace2} {
		rows, err := sweep(ctx, cell{kind: KindWL, src: src})
		if err != nil {
			return nil, err
		}
		var reconfigs, dirty, wbs, stallFrac, outs float64
		minML, maxML := rows[0][0].Extra.MaxlineNow, rows[0][0].Extra.MaxlineNow
		for _, row := range rows {
			r := row[0]
			reconfigs += float64(r.Extra.Reconfigs)
			outs += float64(r.Outages)
			if r.Outages > 0 {
				dirty += float64(r.Extra.CheckpointLines) / float64(r.Outages)
				wbs += float64(r.Extra.Writebacks) / float64(r.Outages)
			}
			if r.ExecTime > 0 {
				stallFrac += float64(r.Extra.StallTime) / float64(r.ExecTime)
			}
			minML, maxML = min(minML, r.Extra.MaxlineNow), max(maxML, r.Extra.MaxlineNow)
		}
		n := float64(len(rows))
		fmt.Fprintf(&b, "%s: reconfigurations/run %.1f, outages/run %.1f,\n", src, reconfigs/n, outs/n)
		fmt.Fprintf(&b, "     dirty lines per checkpoint %.1f, async write-backs per on-period %.1f,\n", dirty/n, wbs/n)
		fmt.Fprintf(&b, "     pipeline stall share %.2f%% of execution, final maxline range [%d,%d]\n\n",
			100*stallFrac/n, minML, maxML)
	}
	b.WriteString("paper reports: 11/12 reconfigurations, maxline range [2,6], 6/3 and 6/2\n")
	b.WriteString("dirty-lines/write-backs per on-period, stalls <1% of execution\n")
	return Report{text(b.String())}, nil
}
