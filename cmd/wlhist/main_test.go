package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/hist"
	"wlcache/internal/serve"
)

// benchDoc is a minimal wlbench/v1 report with a host block so two
// recordings are comparable.
const benchDoc = `{"schema":"wlbench/v1","host":{"go_version":"go1.x","goos":"linux","goarch":"amd64","gomaxprocs":8,"cpu_model":"T","engine":"wlcache-sim/6"},"results":[
  {"design":"wl","workload":"sha","trace":"tr1","host_ns":1000,"ns_per_op":16.7,"sim_instrs_per_sec":6e7,"sim_exec_ps":3937,"instructions":466947,"outages":22,"stalls":0,"writebacks":0,"dirty_peak":0,"avg_dirty_per_ckpt":0,"checksum":3188836267}]}`

func TestRecordGateTrendHTML(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "h.jsonl")
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(benchDoc), 0o644); err != nil {
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

	// Inject a 10x ns_per_op regression (same host block): the gate
	// must fail with exit 2.
	var doc map[string]any
	json.Unmarshal([]byte(benchDoc), &doc)
	cell := doc["results"].([]any)[0].(map[string]any)
	cell["ns_per_op"] = cell["ns_per_op"].(float64) * 10
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
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "ns_per_op") {
		t.Fatalf("gate output: %s", out.String())
	}

	// A generous threshold swallows the 10x jump.
	out.Reset()
	if code, _ := run([]string{"gate", "-store", store, "-threshold", "20"}, &out); code != 0 {
		t.Fatalf("gate -threshold 20 must pass:\n%s", out.String())
	}

	out.Reset()
	if code, err := run([]string{"trend", "-store", store, "-filter", "ns_per_op"}, &out); err != nil || code != 0 {
		t.Fatalf("trend: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "ns_per_op") {
		t.Fatalf("trend output: %s", out.String())
	}

	htmlOut := filepath.Join(dir, "dash.html")
	out.Reset()
	if code, err := run([]string{"html", "-store", store, "-out", htmlOut}, &out); err != nil || code != 0 {
		t.Fatalf("html: %d %v", code, err)
	}
	page, err := os.ReadFile(htmlOut)
	if err != nil || !strings.Contains(string(page), "<svg") {
		t.Fatalf("dashboard: %v", err)
	}

	out.Reset()
	if code, err := run([]string{"list", "-store", store}, &out); err != nil || code != 0 {
		t.Fatalf("list: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "2 entries") {
		t.Fatalf("list output: %s", out.String())
	}
}

func TestScrape(t *testing.T) {
	exposition := "# TYPE wlserve_sweeps_total counter\nwlserve_sweeps_total 7\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(exposition))
	}))
	defer srv.Close()

	store := filepath.Join(t.TempDir(), "h.jsonl")
	var out strings.Builder
	code, err := run([]string{"scrape", "-store", store, "-url", srv.URL, "-label", "live"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("scrape: code=%d err=%v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, err := run([]string{"list", "-store", store}, &out); err != nil || code != 0 {
		t.Fatalf("list: %d %v", code, err)
	}
	if !strings.Contains(out.String(), "prometheus") || !strings.Contains(out.String(), "live") {
		t.Fatalf("list output: %s", out.String())
	}
}

// scrape records a live wlserve's /metrics: every service counter
// lands in the store as a prom.* info metric.
func TestScrapeLiveServer(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	store := filepath.Join(t.TempDir(), "h.jsonl")
	var out strings.Builder
	if code, err := run([]string{"scrape", "-store", store, "-url", hs.URL + "/metrics"}, &out); err != nil || code != 0 {
		t.Fatalf("scrape: code=%d err=%v\n%s", code, err, out.String())
	}
	s, err := hist.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	entries := s.Entries()
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	for _, name := range []string{"prom.wlserve_store_loaded", "prom.wlserve_sweeps_total{state=accepted}"} {
		if _, ok := entries[0].Metrics[name]; !ok {
			t.Errorf("scrape entry lacks %s", name)
		}
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
	if _, err := run([]string{"scrape"}, &out); err == nil {
		t.Fatal("scrape without -url must error")
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
