package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/energy"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/sim"
)

// foldResult is the bridge between run-level results and the
// manifest; every field must land as the right gauge.
func TestFoldResult(t *testing.T) {
	res := sim.Result{
		ExecTime:       1_000_000,
		OnTime:         700_000,
		CheckpointTime: 50_000,
		OffTime:        200_000,
		RestoreTime:    50_000,
		Instructions:   12345,
		Outages:        7,
		Energy:         energy.Breakdown{Compute: 2e-9},
		NVMTraffic:     mem.Traffic{WriteWords: 256},
		ReserveWasted:  1e-9,
		Checksum:       0xdead,
	}
	rec := obs.NewRecorder(obs.RunMeta{Design: "wl"}, 16)
	foldResult(rec.Registry(), res)

	want := map[string]float64{
		"result.exec_ps":           1_000_000,
		"result.on_ps":             700_000,
		"result.ckpt_ps":           50_000,
		"result.off_ps":            200_000,
		"result.restore_ps":        50_000,
		"result.instructions":      12345,
		"result.outages":           7,
		"result.energy_pj":         2000,
		"result.nvm_write_bytes":   1024,
		"result.reserve_wasted_pj": 1000,
		"result.checksum":          float64(0xdead),
	}
	m := rec.Manifest()
	got := map[string]float64{}
	for _, g := range m.Gauges {
		got[g.Name] = g.Last
	}
	for name, v := range want {
		if diff := math.Abs(got[name] - v); diff > 1e-9*math.Abs(v) {
			t.Errorf("gauge %s = %g, want %g", name, got[name], v)
		}
	}
}

// End-to-end smoke for the causal subcommands on an uninterrupted-power
// run (fast, deterministic).
func TestSpansAttributeFlameSubcommands(t *testing.T) {
	dir := t.TempDir()

	var out bytes.Buffer
	code, err := run([]string{"spans", "-design", "wl", "-workload", "qsort", "-trace", "none", "-limit", "5"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("spans: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "spans") || !strings.Contains(out.String(), "coverage 100.0%") {
		t.Fatalf("spans output:\n%s", out.String())
	}

	out.Reset()
	code, err = run([]string{"spans", "-design", "wl", "-workload", "qsort", "-trace", "none",
		"-kind", "writeback", "-json"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("spans -json: code=%d err=%v", code, err)
	}
	if s := out.String(); !strings.Contains(s, `"kind":"writeback"`) || strings.Contains(s, `"kind":"stall"`) {
		t.Fatalf("spans -kind filter leaked other kinds:\n%.400s", s)
	}

	out.Reset()
	attrJSON := filepath.Join(dir, "attr.jsonl")
	code, err = run([]string{"attribute", "-designs", "nvcache-wb,wl", "-workload", "qsort", "-trace", "none",
		"-json", attrJSON, "-require-full-coverage"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("attribute: code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"compute", "maxline-stall", "hidden port-wait", "coverage"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("attribute table missing %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(attrJSON)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadAttrs(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("wrote %d wlattr records, want 2", len(recs))
	}
	for _, r := range recs {
		var sum int64
		for _, v := range r.Categories {
			sum += v
		}
		if sum+r.UnknownPS != r.TotalPS {
			t.Fatalf("%s: serialized ledger breaks the invariant: %d + %d != %d",
				r.Design, sum, r.UnknownPS, r.TotalPS)
		}
		if r.Coverage != 1 {
			t.Fatalf("%s: coverage %g, want 1", r.Design, r.Coverage)
		}
	}

	out.Reset()
	folded := filepath.Join(dir, "wl.folded")
	code, err = run([]string{"flame", "-design", "wl", "-workload", "qsort", "-trace", "none", "-out", folded}, &out)
	if err != nil || code != 0 {
		t.Fatalf("flame: code=%d err=%v\n%s", code, err, out.String())
	}
	raw, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "compute ") {
		t.Fatalf("folded output lacks a compute stack:\n%s", raw)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}
}
