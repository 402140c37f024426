package hist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/obs"
)

// testEntry builds a minimal entry for store tests.
func testEntry(label string, key Key, metrics map[string]Metric) Entry {
	return Entry{
		Label:   label,
		Source:  Source{Format: "wlperf/v1", Name: label + ".json"},
		Key:     key,
		Metrics: metrics,
	}
}

var hostA = Key{Engine: "wlcache-sim/6", Host: "go1.x linux/amd64 maxprocs=8 cpu=A"}
var hostB = Key{Engine: "wlcache-sim/6", Host: "go1.x linux/amd64 maxprocs=8 cpu=B"}

func perf(v float64) Metric  { return Metric{Value: v, Dir: "lower", Kind: KindPerf} }
func exact(v float64) Metric { return Metric{Value: v, Kind: KindExact} }

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e1, added, err := s.Append(testEntry("a", hostA, map[string]Metric{"m": perf(1)}))
	if err != nil || !added {
		t.Fatalf("first append: added=%v err=%v", added, err)
	}
	if e1.Seq != 1 || e1.Schema != Schema || e1.ID == "" {
		t.Fatalf("bad appended entry: %+v", e1)
	}
	if _, added, _ := s.Append(testEntry("b", hostA, map[string]Metric{"m": perf(2)})); !added {
		t.Fatal("second append deduped unexpectedly")
	}

	// Identical content dedupes without touching the file.
	before, _ := os.ReadFile(path)
	dup, added, err := s.Append(testEntry("a", hostA, map[string]Metric{"m": perf(1)}))
	if err != nil || added {
		t.Fatalf("dup append: added=%v err=%v", added, err)
	}
	if dup.Seq != 1 || dup.ID != e1.ID {
		t.Fatalf("dup resolved to %+v, want seq 1", dup)
	}
	after, _ := os.ReadFile(path)
	if len(after) != len(before) {
		t.Fatal("dedup still grew the file")
	}

	// Reload sees the same entries in order.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.Entries()[0].ID != e1.ID || s2.Entries()[1].Seq != 2 {
		t.Fatalf("reload: %+v", s2.Entries())
	}
}

func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	if _, _, err := s.Append(testEntry("a", hostA, map[string]Metric{"m": perf(1)})); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves an unterminated partial line.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"schema":"wlhist/v1","id":"dead`)
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if s2.Len() != 1 || s2.TornTail == 0 {
		t.Fatalf("len=%d torn=%d, want 1 entry and a torn tail", s2.Len(), s2.TornTail)
	}

	// A fresh append repairs the tail — truncating the fragment so
	// the new entry never glues onto it.
	if _, _, err := s2.Append(testEntry("b", hostA, map[string]Metric{"m": perf(2)})); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 2 || s3.TornTail != 0 {
		t.Fatalf("after repair: len=%d torn=%d, want 2 entries and a clean tail", s3.Len(), s3.TornTail)
	}
}

func TestStoreInteriorGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(testEntry("a", hostA, map[string]Metric{"m": perf(1)}))
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("not json\n")
	f.Close()
	if _, err := Open(path); err == nil {
		t.Fatal("interior garbage (terminated line) must error")
	}
}

func TestStoreTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(testEntry("a", hostA, map[string]Metric{"m": perf(1)}))
	raw, _ := os.ReadFile(path)
	tampered := strings.Replace(string(raw), `"value":1`, `"value":2`, 1)
	if tampered == string(raw) {
		t.Fatal("test setup: value not found")
	}
	os.WriteFile(path, []byte(tampered), 0o644)
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "does not match content") {
		t.Fatalf("tampered value must fail the content check, got %v", err)
	}
}

func TestSeriesAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(testEntry("a", hostA, map[string]Metric{"x": perf(1), "y": exact(7)}))
	s.Append(testEntry("b", hostA, map[string]Metric{"x": perf(2)}))
	all := s.SeriesAll()
	if len(all) != 2 || all[0].Name != "x" || all[1].Name != "y" {
		t.Fatalf("series: %+v", all)
	}
	if len(all[0].Points) != 2 || all[0].Points[1].Value != 2 || all[0].Kind != KindPerf {
		t.Fatalf("x series: %+v", all[0])
	}
	if all[0].Dir != obs.DirLower {
		t.Fatalf("x dir: %v", all[0].Dir)
	}
}

// --- gate rules -----------------------------------------------------

func gateOver(t *testing.T, entries ...Entry) GateReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	for _, e := range entries {
		if _, _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return Gate(s, GateConfig{})
}

func findFinding(t *testing.T, rep GateReport, metric string) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for %s in %+v", metric, rep.Findings)
	return Finding{}
}

func TestGatePerfRegression(t *testing.T) {
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"ns": perf(100)}),
		testEntry("b", hostA, map[string]Metric{"ns": perf(1000)}),
	)
	f := findFinding(t, rep, "ns")
	if !f.Regressed() || rep.Regressions != 1 {
		t.Fatalf("10x slower must regress: %+v", f)
	}
	// Improvement and small noise both pass.
	rep = gateOver(t,
		testEntry("a", hostA, map[string]Metric{"ns": perf(100)}),
		testEntry("b", hostA, map[string]Metric{"ns": perf(104)}),
	)
	if rep.Regressions != 0 {
		t.Fatalf("4%% noise must pass: %+v", rep.Findings)
	}
	rep = gateOver(t,
		testEntry("a", hostA, map[string]Metric{"ns": perf(100)}),
		testEntry("b", hostA, map[string]Metric{"ns": perf(50)}),
	)
	if f := findFinding(t, rep, "ns"); f.Verdict != "improved" {
		t.Fatalf("2x faster must improve: %+v", f)
	}
}

func TestGatePerfCrossHostSkipped(t *testing.T) {
	// The same slowdown across different host fingerprints is not
	// comparable: a slower CI runner must not fail the build.
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"ns": perf(100)}),
		testEntry("b", hostB, map[string]Metric{"ns": perf(1000)}),
	)
	f := findFinding(t, rep, "ns")
	if f.Verdict != "skipped" || rep.Regressions != 0 || rep.Skipped != 1 {
		t.Fatalf("cross-host perf must skip: %+v", f)
	}
	if !strings.Contains(f.Note, "host differs") {
		t.Fatalf("note should say why: %q", f.Note)
	}
}

func TestGatePerfBaselineSkipsBack(t *testing.T) {
	// With an incomparable entry in between, the gate reaches back to
	// the newest comparable point.
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"ns": perf(100)}),
		testEntry("b", hostB, map[string]Metric{"ns": perf(55)}),
		testEntry("c", hostA, map[string]Metric{"ns": perf(1000)}),
	)
	f := findFinding(t, rep, "ns")
	if !f.Regressed() || f.Baseline != 100 {
		t.Fatalf("must gate vs hostA baseline 100: %+v", f)
	}
}

func TestGateExactAcrossHosts(t *testing.T) {
	// Checksums are simulated outcomes: a change is drift even when
	// the two runs came from different machines.
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"sum": exact(12345)}),
		testEntry("b", hostB, map[string]Metric{"sum": exact(99999)}),
	)
	if f := findFinding(t, rep, "sum"); !f.Regressed() {
		t.Fatalf("checksum change must regress across hosts: %+v", f)
	}
	// Same value: ok.
	rep = gateOver(t,
		testEntry("a", hostA, map[string]Metric{"sum": exact(12345)}),
		testEntry("b", hostB, map[string]Metric{"sum": exact(12345)}),
	)
	if f := findFinding(t, rep, "sum"); f.Verdict != "ok" {
		t.Fatalf("stable checksum: %+v", f)
	}
}

func TestGateExactEngineConflictSkips(t *testing.T) {
	// A checksum from a different engine version is expected to
	// differ; the gate must not compare across a definite conflict.
	oldEngine := Key{Engine: "wlcache-sim/5", Host: hostA.Host}
	rep := gateOver(t,
		testEntry("a", oldEngine, map[string]Metric{"sum": exact(1)}),
		testEntry("b", hostA, map[string]Metric{"sum": exact(2)}),
	)
	f := findFinding(t, rep, "sum")
	if f.Verdict != "skipped" || !strings.Contains(f.Note, "engine differs") {
		t.Fatalf("engine conflict must skip: %+v", f)
	}
	// But an Unknown engine is a wildcard (a host block without one).
	unk := Key{Engine: Unknown, Host: hostA.Host}
	rep = gateOver(t,
		testEntry("a", unk, map[string]Metric{"sum": exact(1)}),
		testEntry("b", hostA, map[string]Metric{"sum": exact(1)}),
	)
	if f := findFinding(t, rep, "sum"); f.Verdict != "ok" {
		t.Fatalf("unknown engine must match anything: %+v", f)
	}
}

func TestGateDirectedExact(t *testing.T) {
	out := func(v float64) Metric { return Metric{Value: v, Dir: "lower", Kind: KindExact} }
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"outages": out(22)}),
		testEntry("b", hostA, map[string]Metric{"outages": out(30)}),
	)
	if f := findFinding(t, rep, "outages"); !f.Regressed() {
		t.Fatalf("more outages must regress: %+v", f)
	}
	rep = gateOver(t,
		testEntry("a", hostA, map[string]Metric{"outages": out(22)}),
		testEntry("b", hostA, map[string]Metric{"outages": out(9)}),
	)
	if f := findFinding(t, rep, "outages"); f.Verdict != "improved" {
		t.Fatalf("fewer outages must improve, not fail the exact rule: %+v", f)
	}
}

// A latency quantile is judged by the perf rule on its one prior
// point, also when an older store still files it under the retired
// "latency" kind.
func TestGateLatencyUsesPerfRule(t *testing.T) {
	for _, kind := range []string{KindPerf, "latency"} {
		mk := func(label string, v float64) Entry {
			return testEntry(label, hostA, map[string]Metric{
				"p50": {Value: v, Unit: "ms", Dir: "lower", Kind: kind},
			})
		}
		if f := findFinding(t, gateOver(t, mk("a", 10), mk("b", 30)), "p50"); !f.Regressed() {
			t.Fatalf("kind %q: 3x slower must regress: %+v", kind, f)
		}
		if f := findFinding(t, gateOver(t, mk("a", 10), mk("b", 10.4)), "p50"); f.Verdict != "ok" {
			t.Fatalf("kind %q: 4%% noise must pass: %+v", kind, f)
		}
	}
}

func TestGateInfoAndSinglePointIgnored(t *testing.T) {
	info := Metric{Value: 5, Kind: KindInfo}
	rep := gateOver(t,
		testEntry("a", hostA, map[string]Metric{"i": info, "only": perf(1)}),
		testEntry("b", hostA, map[string]Metric{"i": {Value: 500, Kind: KindInfo}}),
	)
	if len(rep.Findings) != 0 || rep.Regressions != 0 {
		t.Fatalf("info and single-point series must produce no findings: %+v", rep.Findings)
	}
}

// --- ingestion ------------------------------------------------------

func TestSniff(t *testing.T) {
	cases := map[string]string{
		`{"schema":"wlperf/v1","metrics":[]}`:      "wlperf/v1",
		`{"schema":"wlobs/v1"}` + "\n" + `{"x":1}`: "wlobs/v1",
		`{"format":"wlattr/v1"}`:                   "wlattr/v1",
	}
	for in, want := range cases {
		got, err := Sniff([]byte(in))
		if err != nil || got != want {
			t.Errorf("Sniff(%.40q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "{}", "<html>"} {
		if _, err := Sniff([]byte(bad)); err == nil {
			t.Errorf("Sniff(%q) must error", bad)
		}
	}
	// Run history takes only the two report formats. A report of the
	// retired load harness and a retired wlattr/v1 ledger name formats
	// with no ingestor, and a Prometheus exposition, with or without
	// comments, is not a report.
	for file, want := range map[string]string{
		"testdata/load_report.json": "unsupported format",
		"testdata/metrics.prom":     "unrecognized document",
	} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Ingest(raw, file, ""); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Ingest(%s) = %v, want an error containing %q", file, err, want)
		}
	}
	if _, err := Ingest([]byte(`{"format":"wlattr/v1","design":"wl","total_ps":1000}`+"\n"), "attr.jsonl", ""); err == nil ||
		!strings.Contains(err.Error(), "unsupported format") {
		t.Errorf("a wlattr/v1 ledger must be an unsupported format: %v", err)
	}
	if _, err := Ingest([]byte("wlserve_http_requests_total 12\n"), "bare", ""); err == nil ||
		!strings.Contains(err.Error(), "unrecognized document") {
		t.Errorf("a bare exposition must be unrecognized: %v", err)
	}
}

// perfReport is a wlperf/v1 report as bench/ writes it.
const perfReport = `{"schema":"wlperf/v1","host":{"go_version":"go1.x","gomaxprocs":2,"num_cpu":2,"goos":"linux","goarch":"amd64","cpu_model":"T","engine":"wlcache-sim/6"},
  "engine":"wlcache-sim/6","workload":"fig-fast","seed":1,"seconds":4,"passes":8,"workers":2,"traced":false,"attempted":840,"failed":0,"metrics":[
  {"name":"setup_s","unit":"s","value":0.008,"n":15},
  {"name":"sim_mips","unit":"Minstr/s","value":203.3,"n":8},
  {"name":"request_ms_p50","unit":"ms","value":5.6,"n":105},
  {"name":"max_rss_mb","unit":"MB","value":15.7,"n":1},
  {"name":"host.slowdown","unit":"ratio","value":1.04,"n":8}]}`

func TestIngestBenchAndSyntheticRegression(t *testing.T) {
	entries, err := Ingest([]byte(perfReport), "fresh.json", "run-a")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ingest: %v, %d entries", err, len(entries))
	}
	e := entries[0]
	if e.Label != "run-a" || e.Key.Engine != "wlcache-sim/6" || e.Key.Host == Unknown {
		t.Fatalf("entry key: %+v", e.Key)
	}
	for name, want := range map[string]Metric{
		"fig-fast.setup_s":        {Value: 0.008, Unit: "s", Dir: "lower", Kind: KindPerf},
		"fig-fast.sim_mips":       {Value: 203.3, Unit: "Minstr/s", Dir: "higher", Kind: KindPerf},
		"fig-fast.max_rss_mb":     {Value: 15.7, Unit: "MB", Dir: "lower", Kind: KindPerf},
		"fig-fast.request_ms_p50": {Value: 5.6, Unit: "ms", Dir: "lower", Kind: KindPerf},
		"fig-fast.failed":         {Value: 0, Dir: "lower", Kind: KindExact},
		"fig-fast.attempted":      {Value: 840, Kind: KindInfo},
		"fig-fast.host.slowdown":  {Value: 1.04, Unit: "ratio", Kind: KindInfo},
	} {
		if got := e.Metrics[name]; got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	if len(e.Metrics) != 7 {
		t.Errorf("%d metrics, want 7", len(e.Metrics))
	}

	// The acceptance scenario: the same report with sim_mips cut
	// tenfold (same host) must fail the gate on sim_mips alone.
	perturbed := strings.Replace(perfReport, `"value":203.3`, `"value":20.33`, 1)
	bad, err := Ingest([]byte(perturbed), "fresh2.json", "run-b")
	if err != nil {
		t.Fatal(err)
	}
	rep := gateOver(t, entries[0], bad[0])
	f := findFinding(t, rep, "fig-fast.sim_mips")
	if !f.Regressed() || rep.Regressions != 1 {
		t.Fatalf("injected 10x slower sim_mips must regress alone (got %+v, report %+v)", f, rep)
	}
}

// --- the committed baseline -----------------------------------------

// TestGateRealBaselines replays the committed perf/*.json reports, as
// HISTORY.jsonl records them: one entry per benchmark workload, every
// one keyed by a real engine and host. A copy of one report with
// sim_mips cut tenfold must then regress sim_mips alone, and a copy
// with a failed cell must regress failed even from another host.
func TestGateRealBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../perf/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed perf reports: %v", err)
	}
	var base []Entry
	var fig map[string]any
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := Ingest(raw, p, "baseline")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Key.Engine == Unknown || e.Key.Host == Unknown {
				t.Fatalf("%s: key %+v has an unknown field", p, e.Key)
			}
		}
		base = append(base, entries...)
		if filepath.Base(p) == "fig-fast.json" {
			if err := json.Unmarshal(raw, &fig); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep := gateOver(t, base...); rep.Regressions != 0 {
		t.Fatalf("committed baseline must pass: %+v", rep.Findings)
	}
	if fig == nil {
		t.Fatal("no committed fig-fast report")
	}

	// ingestCopy ingests fig-fast.json after edit changes its document.
	ingestCopy := func(edit func(doc map[string]any)) Entry {
		t.Helper()
		raw, _ := json.Marshal(fig)
		var doc map[string]any
		json.Unmarshal(raw, &doc)
		edit(doc)
		raw, _ = json.Marshal(doc)
		entries, err := Ingest(raw, "copy.json", "copy")
		if err != nil {
			t.Fatal(err)
		}
		return entries[0]
	}
	onlyRegression := func(rep GateReport, metric string) {
		t.Helper()
		if f := findFinding(t, rep, metric); !f.Regressed() || rep.Regressions != 1 {
			t.Fatalf("%s must regress alone: %+v", metric, rep.Findings)
		}
	}

	slowed := ingestCopy(func(doc map[string]any) {
		for _, m := range doc["metrics"].([]any) {
			if m := m.(map[string]any); m["name"] == "sim_mips" {
				m["value"] = m["value"].(float64) * 0.1
			}
		}
	})
	onlyRegression(gateOver(t, append(base, slowed)...), "fig-fast.sim_mips")

	failing := ingestCopy(func(doc map[string]any) {
		doc["failed"] = 1
		doc["host"].(map[string]any)["cpu_model"] = "another CPU"
	})
	if failing.Key.Host == base[0].Key.Host {
		t.Fatal("test setup: host unchanged")
	}
	onlyRegression(gateOver(t, append(base, failing)...), "fig-fast.failed")
}

// --- rendering ------------------------------------------------------

func TestTrendTableAndGateTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(testEntry("a", hostA, map[string]Metric{
		"fig-fast.sim_mips": {Value: 180.4, Unit: "Minstr/s", Dir: "higher", Kind: KindPerf},
	}))
	s.Append(testEntry("b", hostA, map[string]Metric{
		"fig-fast.sim_mips": {Value: 203.3, Unit: "Minstr/s", Dir: "higher", Kind: KindPerf},
	}))

	trend := TrendTable(s, "")
	if !strings.Contains(trend, "sim_mips") || !strings.Contains(trend, "▁") {
		t.Fatalf("trend table lacks series or sparkline:\n%s", trend)
	}
	if out := TrendTable(s, "nomatch"); !strings.Contains(out, "no series match") {
		t.Fatalf("filter miss: %q", out)
	}

	rep := Gate(s, GateConfig{})
	gt := GateTable(rep)
	if !strings.Contains(gt, "IMPROVED") {
		t.Fatalf("gate table:\n%s", gt)
	}
}
