package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// perfDoc is a minimal wlperf/v1 report with a host block, so two
// recordings are comparable.
const perfDoc = `{"schema":"wlperf/v1","host":{"go_version":"go1.x","goos":"linux","goarch":"amd64","gomaxprocs":2,"cpu_model":"T","engine":"wlcache-sim/6"},
  "engine":"wlcache-sim/6","workload":"fig-fast","attempted":840,"failed":0,"metrics":[
  {"name":"sim_mips","unit":"Minstr/s","value":203.3,"n":8},
  {"name":"request_ms_p50","unit":"ms","value":5.6,"n":105}]}`

func TestRecordGateTrendList(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "h.jsonl")
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(perfDoc), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	code, err := run([]string{"record", "-store", store, "-label", "a", "-now", "0", good}, &out)
	if err != nil || code != 0 {
		t.Fatalf("record: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "recorded") {
		t.Fatalf("record output: %s", out.String())
	}

	// -now 0 keeps the line deterministic: recording again dedupes.
	out.Reset()
	if code, err := run([]string{"record", "-store", store, "-label", "a", "-now", "0", good}, &out); err != nil || code != 0 {
		t.Fatalf("re-record: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "already recorded") {
		t.Fatalf("re-record must dedupe: %s", out.String())
	}

	// One entry: nothing to gate against, no drift.
	out.Reset()
	if code, err := run([]string{"gate", "-store", store}, &out); err != nil || code != 0 {
		t.Fatalf("gate on single entry: code=%d err=%v\n%s", code, err, out.String())
	}

	// Inject a 10x sim_mips regression (same host block): the gate
	// must fail with exit 2.
	var doc map[string]any
	json.Unmarshal([]byte(perfDoc), &doc)
	m := doc["metrics"].([]any)[0].(map[string]any)
	m["value"] = m["value"].(float64) * 0.1
	slowed, _ := json.Marshal(doc)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, slowed, 0o644)
	out.Reset()
	if code, err := run([]string{"record", "-store", store, "-label", "b", "-now", "0", bad}, &out); err != nil || code != 0 {
		t.Fatalf("record bad: %d %v", code, err)
	}
	out.Reset()
	code, err = run([]string{"gate", "-store", store}, &out)
	if err != nil || code != 2 {
		t.Fatalf("gate must exit 2 on injected regression: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "fig-fast.sim_mips") {
		t.Fatalf("gate output: %s", out.String())
	}

	// A generous threshold swallows the 10x jump.
	out.Reset()
	if code, _ := run([]string{"gate", "-store", store, "-threshold", "20"}, &out); code != 0 {
		t.Fatalf("gate -threshold 20 must pass:\n%s", out.String())
	}

	out.Reset()
	if code, err := run([]string{"trend", "-store", store, "-filter", "sim_mips"}, &out); err != nil || code != 0 {
		t.Fatalf("trend: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "sim_mips") {
		t.Fatalf("trend output: %s", out.String())
	}

	out.Reset()
	if code, err := run([]string{"list", "-store", store}, &out); err != nil || code != 0 {
		t.Fatalf("list: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "2 entries") {
		t.Fatalf("list output: %s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if _, err := run(nil, &out); err == nil {
		t.Fatal("no args must error")
	}
	if _, err := run([]string{"bogus"}, &out); err == nil {
		t.Fatal("unknown subcommand must error")
	}
	if _, err := run([]string{"record", "-store", filepath.Join(t.TempDir(), "h.jsonl")}, &out); err == nil {
		t.Fatal("record with no files must error")
	}
	for _, cmd := range []string{"scrape", "html"} {
		if _, err := run([]string{cmd}, &out); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Fatalf("%s is not a subcommand: %v", cmd, err)
		}
	}
	// record takes only the three report formats: a report of the
	// retired load harness and a Prometheus exposition are refused.
	store := filepath.Join(t.TempDir(), "h.jsonl")
	for _, path := range []string{
		"../../internal/hist/testdata/load_report.json",
		"../../internal/hist/testdata/metrics.prom",
	} {
		if _, err := run([]string{"record", "-store", store, path}, &out); err == nil {
			t.Errorf("record %s accepted", path)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-version"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-version: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "wlhist") {
		t.Fatalf("version output: %s", out.String())
	}
}
