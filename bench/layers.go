package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
)

// perLayerUnits lists every per-layer metric with its unit; each
// workload reports all of them, with 0 and n=0 where a layer takes no
// part in the workload (the service layer in the simulator workloads,
// the wrapped seams in serve-resume).
func perLayerUnits() map[string]string {
	u := map[string]string{
		"host.slowdown":                  "ratio",
		"profile.named_frac":             "fraction",
		"trace_overhead_frac":            "fraction",
		"seam.design.access_ns_mean":     "ns",
		"seam.design.checkpoint_us_mean": "us",
		"seam.design.restore_us_mean":    "us",
		"seam.design.checkpoint_calls":   "count",
		"seam.workload.call_ns_mean":     "ns",
		"runner.busy_frac":               "fraction",
		"runner.queue_wait_ms_p50":       "ms",
		"runner.cell_ns_per_instr_p50":   "ns/instr",
		"runner.cell_ns_per_instr_p99":   "ns/instr",
		"serve.cold_sweep_s_p50":         "s",
		"serve.warm_sweep_ms_p50":        "ms",
		"serve.warm_sweep_ms_p95":        "ms",
		"serve.restart_ms_p50":           "ms",
		"serve.journal_fsync_us_mean":    "us",
		"serve.http_request_us_mean":     "us",
		"serve.cell_wait_us_mean":        "us",
		"serve.dedup_ratio":              "fraction",
		"serve.cells_computed":           "count",
		"serve.cells_served":             "count",
		"sim.instructions":               "count",
		"sim.outages":                    "count",
		"design.writebacks":              "count",
		"design.stalls":                  "count",
		"mem.nvm_write_words":            "count",
		"mem.nvm_read_words":             "count",
	}
	for _, l := range layerNames {
		u["layer."+l+".cpu_frac"] = "fraction"
		u["layer."+l+".ns_per_instr"] = "ns/instr"
	}
	return u
}

// fillPerLayer adds, as 0 with n=0, every per-layer metric the workload
// did not measure, and sorts the list by name.
func fillPerLayer(rep *report) {
	have := map[string]bool{}
	for _, m := range rep.perLayer {
		have[m.Name] = true
	}
	for name, unit := range perLayerUnits() {
		if !have[name] {
			rep.layer(name, unit, 0, 0)
		}
	}
	slices.SortFunc(rep.perLayer, func(a, b metric) int { return cmp.Compare(a.Name, b.Name) })
}

// addProfileLayers folds the CPU profile into each layer's share of the
// traced samples and its CPU time per simulated instruction.
func addProfileLayers(rep *report, profile []byte, instr uint64) error {
	ns, samples, err := foldLayers(profile)
	if err != nil {
		return err
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	for _, l := range layerNames {
		rep.layer("layer."+l+".cpu_frac", "fraction", ratio(float64(ns[l]), float64(total)), samples)
		rep.layer("layer."+l+".ns_per_instr", "ns/instr", ratio(float64(ns[l]), float64(instr)), samples)
	}
	rep.layer("profile.named_frac", "fraction", ratio(float64(total-ns["other"]), float64(total)), samples)
	return nil
}

// addTraceOverhead compares the median traced and untraced pass (or
// cycle) times measured side by side in one run.
func addTraceOverhead(rep *report, traced, untraced []float64) {
	rep.layer("trace_overhead_frac", "fraction",
		ratio(quantile(traced, 0.5), quantile(untraced, 0.5))-1, len(traced)+len(untraced))
}

// finishTrace completes the per-layer metrics and writes the run's CPU
// profile, its spans and those metrics to cfg.out as W.cpu.pprof,
// W.trace.json and W.layers.json.
func finishTrace(cfg config, rep *report, rec *recorder, profile []byte) error {
	fillPerLayer(rep)
	base := filepath.Join(cfg.out, cfg.workload)
	if err := writeFile(base+".cpu.pprof", profile); err != nil {
		return err
	}
	process := fmt.Sprintf("bench %s seed %d", cfg.workload, cfg.seed)
	if err := rec.writeChrome(base+".trace.json", process); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep.perLayer, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(base+".layers.json", append(data, '\n'))
}
