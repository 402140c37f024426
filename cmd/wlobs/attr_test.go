package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// End-to-end smoke for the ledger record folds into every manifest,
// on an uninterrupted-power run (fast, deterministic).
func TestRecordLedger(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	code, err := run([]string{"record", "-designs", "nvcache-wb,wl", "-workload", "qsort", "-trace", "none",
		"-require-full-coverage", "-out", dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("record: code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"cycle attribution: qsort / none", "compute", "maxline-stall", "hidden port-wait", "coverage"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("ledger table missing %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.ReadManifests(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("wrote %d manifests, want 2", len(ms))
	}
	for _, m := range ms {
		var sum uint64
		cats := 0
		for _, c := range m.Counters {
			if strings.HasPrefix(c.Name, "attr.") && strings.HasSuffix(c.Name, "_ps") {
				sum += c.Value
				cats++
			}
		}
		gauge := map[string]float64{}
		for _, g := range m.Gauges {
			gauge[g.Name] = g.Last
		}
		if cats != len(obs.Categories())+1 {
			t.Fatalf("%s: %d attr.*_ps counters, want every category plus unknown", m.Design, cats)
		}
		if float64(sum) != gauge["result.exec_ps"] {
			t.Fatalf("%s: attr.*_ps counters sum to %d, want result.exec_ps %g", m.Design, sum, gauge["result.exec_ps"])
		}
		if gauge["attr.coverage"] != 1 {
			t.Fatalf("%s: attr.coverage %g, want 1", m.Design, gauge["attr.coverage"])
		}
	}

	// The manifest carries the ledger, so the directory holds it and
	// one Chrome trace per design, nothing else.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"manifest.jsonl", "trace-nvcache-wb-qsort-none.json", "trace-wl-qsort-none.json"}
	if !slices.Equal(names, want) {
		t.Fatalf("record wrote %v, want exactly %v", names, want)
	}

	// A ring too small to hold the run leaves part of the timeline
	// unattributed, which -require-full-coverage turns into exit 1.
	out.Reset()
	code, err = run([]string{"record", "-designs", "wl", "-workload", "qsort", "-trace", "none",
		"-events", "16", "-require-full-coverage", "-out", t.TempDir()}, &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "coverage") {
		t.Fatalf("record on a 16-event ring: code=%d err=%v, want exit 1\n%s", code, err, out.String())
	}
}

// EXPERIMENTS.md §4.2 quotes the ledger table this record prints; the
// quoted block must be the verbatim output, so the numbers there are
// derived rather than pasted.
func TestExperimentsLedgerTableIsDerived(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"record", "-designs", "nvcache-wb,vcache-wt,wl", "-workload", "sha", "-trace", "tr1",
		"-out", t.TempDir()}, &out)
	if err != nil || code != 0 {
		t.Fatalf("record: code=%d err=%v\n%s", code, err, out.String())
	}
	s := out.String()
	i := strings.Index(s, "cycle attribution:")
	if i < 0 {
		t.Fatalf("record printed no ledger table:\n%s", s)
	}
	table := s[i:]
	table = table[:strings.Index(table, "wrote ")]
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), table) {
		t.Fatalf("EXPERIMENTS.md §4.2 does not quote the table verbatim; it must read:\n%s", table)
	}
}
