package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/obs"
)

// TestRecordRoundTrip drives the full CLI: record one instrumented
// run, check the artifacts, then re-render the saved manifest.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	code, err := run([]string{"record", "-designs", "wl", "-workload", "sha", "-trace", "tr1", "-out", dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("record: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "DirtyQueue occupancy") {
		t.Errorf("record summary lacks the occupancy chart:\n%s", out.String())
	}

	manifest := filepath.Join(dir, "manifest.jsonl")
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.ReadManifests(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d manifests, want 1", len(ms))
	}
	for _, want := range []string{"dq.occupancy", "wb.latency_ps", "ckpt.cost_ps"} {
		found := false
		for _, h := range ms[0].Histograms {
			if h.Name == want && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest lacks populated histogram %q", want)
		}
	}

	// The Chrome export must be plain loadable JSON with events.
	raw, err := os.ReadFile(filepath.Join(dir, "trace-wl-sha-tr1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}

	// summary re-renders the saved manifest.
	out.Reset()
	code, err = run([]string{"summary", manifest}, &out)
	if err != nil || code != 0 {
		t.Fatalf("summary: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "wl / sha / tr1") {
		t.Errorf("summary output:\n%s", out.String())
	}
}

// TestRecordWithFaultInjection checks the fault-injection path records
// forced checkpoints and torn writes in the manifest.
func TestRecordWithFaultInjection(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	code, err := run([]string{"record", "-designs", "wl", "-workload", "qsort", "-trace", "none",
		"-fault", "tornckpt", "-crashes", "2", "-out", dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("record: code=%d err=%v\n%s", code, err, out.String())
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
	counter := func(name string) uint64 {
		for _, c := range ms[0].Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("manifest lacks counter %q", name)
		return 0
	}
	if counter("ckpt.forced") == 0 {
		t.Error("no forced checkpoints recorded")
	}
	if counter("fault.torn_writes") == 0 {
		t.Error("no torn writes recorded")
	}
}

// TestBadUsage exercises the argument errors.
func TestBadUsage(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(nil, &out); err == nil {
		t.Error("no args: want error")
	}
	if _, err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand: want error")
	}
	if _, err := run([]string{"diff", "a.jsonl", "b.jsonl"}, &out); err == nil {
		t.Error("diff is retired (wlhist gate judges manifests): want error")
	}
	// record folds the cycle ledger into every recording's manifest,
	// so the standalone ledger subcommands and the span graph are gone.
	for _, sub := range []string{"attribute", "flame", "spans"} {
		if _, err := run([]string{sub}, &out); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: err = %v, want an unknown subcommand error", sub, err)
		}
	}
	// Bad input is a usage error, never a panic, and is rejected before
	// the output directory is made.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"record", "-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"record", "-designs", "wl,bogus"}, `unknown design kind "bogus"`},
		{[]string{"record", "-trace", "bogus"}, `unknown power trace "bogus"`},
		{[]string{"record", "-scale", "0"}, "-scale 0: want at least 1"},
		{[]string{"record", "-scale", "-2"}, "-scale -2: want at least 1"},
		{[]string{"record", "-top", "0"}, "flag provided but not defined: -top"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		args := append(tc.args, "-out", dir)
		if _, err := runNoPanic(t, args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: made the output directory (stat err %v)", tc.args, err)
		}
	}
}

// runNoPanic runs the CLI and fails the test if it panics.
func runNoPanic(t *testing.T, args []string, stdout io.Writer) (code int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%v panicked: %v", args, r)
		}
	}()
	return run(args, stdout)
}
