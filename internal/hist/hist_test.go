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
		Source:  Source{Format: "wlbench/v1", Name: label + ".json"},
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
	// But an Unknown engine is a wildcard (hand-written reports).
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

func TestGateLatencyPercentile(t *testing.T) {
	lat := func(v float64) Metric {
		return Metric{Value: v, Unit: "ms", Dir: "lower", Kind: KindLatency}
	}
	mk := func(label string, v float64) Entry {
		return testEntry(label, hostA, map[string]Metric{"p99": lat(v)})
	}
	// History {10,12,11,50,11}: p95 (nearest rank of 5) = 50. A latest
	// value of 40 is inside the historical envelope even though it is
	// 4x the previous point — no flake.
	rep := gateOver(t, mk("a", 10), mk("b", 12), mk("c", 11), mk("d", 50), mk("e", 11), mk("f", 40))
	f := findFinding(t, rep, "p99")
	if f.Verdict != "ok" {
		t.Fatalf("40 within p95=50 envelope: %+v", f)
	}
	if !strings.Contains(f.Note, "vs p95 of 5 runs") {
		t.Fatalf("note: %q", f.Note)
	}
	// 60 exceeds 50*(1+0.10): regression.
	rep = gateOver(t, mk("a", 10), mk("b", 12), mk("c", 11), mk("d", 50), mk("e", 11), mk("g", 60))
	if f := findFinding(t, rep, "p99"); !f.Regressed() {
		t.Fatalf("60 over p95 envelope must regress: %+v", f)
	}
	// Short history falls back to the perf rule.
	rep = gateOver(t, mk("a", 10), mk("b", 30))
	f = findFinding(t, rep, "p99")
	if !f.Regressed() || !strings.Contains(f.Note, "perf rule") {
		t.Fatalf("short history must use perf rule: %+v", f)
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
		`{"schema":"wlbench/v1","results":[]}`:     "wlbench/v1",
		`{"schema":"wlbench-pr/v1"}`:               "wlbench-pr/v1",
		`{"schema":"wlload/v1"}`:                   "wlload/v1",
		`{"schema":"wlobs/v1"}` + "\n" + `{"x":1}`: "wlobs/v1",
		`{"format":"wlattr/v1"}`:                   "wlattr/v1",
		"# TYPE x counter\nx 1\n":                  "prometheus",
		"wlserve_http_requests_total 12\n":         "prometheus",
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
}

func TestIngestBenchAndSyntheticRegression(t *testing.T) {
	doc := `{"schema":"wlbench/v1","host":{"go_version":"go1.x","goos":"linux","goarch":"amd64","gomaxprocs":8,"cpu_model":"T","engine":"wlcache-sim/6"},"results":[
	  {"design":"wl","workload":"sha","trace":"tr1","host_ns":1000,"ns_per_op":16.7,"sim_instrs_per_sec":6e7,"sim_exec_ps":3937,"instructions":466947,"outages":22,"stalls":0,"writebacks":0,"dirty_peak":0,"avg_dirty_per_ckpt":0,"checksum":3188836267}]}`
	entries, err := Ingest([]byte(doc), "fresh.json", "run-a")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ingest: %v, %d entries", err, len(entries))
	}
	e := entries[0]
	if e.Label != "run-a" || e.Key.Engine != "wlcache-sim/6" || e.Key.Host == Unknown {
		t.Fatalf("entry key: %+v", e.Key)
	}
	m, ok := e.Metrics["cell.wl.sha.tr1.ns_per_op"]
	if !ok || m.Kind != KindPerf || m.Dir != "lower" {
		t.Fatalf("ns_per_op metric: %+v (ok=%v)", m, ok)
	}
	if c := e.Metrics["cell.wl.sha.tr1.checksum"]; c.Kind != KindExact || c.Value != 3188836267 {
		t.Fatalf("checksum metric: %+v", c)
	}

	// The acceptance scenario: the same document with ns_per_op
	// multiplied by 10 (same host!) must fail the gate.
	perturbed := strings.Replace(doc, `"ns_per_op":16.7`, `"ns_per_op":167`, 1)
	bad, err := Ingest([]byte(perturbed), "fresh2.json", "run-b")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(entries[0])
	s.Append(bad[0])
	rep := Gate(s, GateConfig{})
	f := findFinding(t, rep, "cell.wl.sha.tr1.ns_per_op")
	if !f.Regressed() || rep.Regressions != 1 {
		t.Fatalf("injected 10x ns_per_op must regress (got %+v, report %+v)", f, rep)
	}
	// Everything else in the pair is identical: no other finding fails.
	for _, other := range rep.Findings {
		if other.Metric != f.Metric && other.Regressed() {
			t.Fatalf("unexpected extra regression: %+v", other)
		}
	}
}

func TestIngestBenchWithoutHost(t *testing.T) {
	// A pre-PR-9 report has no host block: its wall-clock numbers must
	// land under the Unknown fingerprint, not this machine's.
	doc := `{"schema":"wlbench/v1","results":[{"design":"wl","workload":"sha","trace":"tr1","ns_per_op":16.7,"checksum":1}]}`
	entries, err := Ingest([]byte(doc), "old.json", "")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Key.Host != Unknown {
		t.Fatalf("host: %q", entries[0].Key.Host)
	}
}

func TestIngestBenchTierPrefix(t *testing.T) {
	// A fast-tier report's metrics are namespaced under "fast." so
	// they can never gate against (or be gated by) the exact-tier
	// series of the same cells; exact reports keep historical names.
	doc := `{"schema":"wlbench/v1","tier":"fast","results":[{"design":"wl","workload":"sha","trace":"tr1","ns_per_op":16.7,"checksum":1}]}`
	entries, err := Ingest([]byte(doc), "fast.json", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := entries[0].Metrics["fast.cell.wl.sha.tr1.checksum"]; !ok {
		t.Fatalf("fast-tier metric not prefixed: %v", keysOf(entries[0].Metrics))
	}
	if _, ok := entries[0].Metrics["cell.wl.sha.tr1.checksum"]; ok {
		t.Fatal("fast-tier report leaked into the exact-tier namespace")
	}
	for _, tier := range []string{"", "exact"} {
		doc := `{"schema":"wlbench/v1","tier":"` + tier + `","results":[{"design":"wl","workload":"sha","trace":"tr1","checksum":1}]}`
		entries, err := Ingest([]byte(doc), "exact.json", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := entries[0].Metrics["cell.wl.sha.tr1.checksum"]; !ok {
			t.Fatalf("tier %q: exact-tier metric renamed: %v", tier, keysOf(entries[0].Metrics))
		}
	}
	// The PR-style before/after report namespaces the same way.
	pr := `{"schema":"wlbench-pr/v1","tier":"fast","host":"h","benchmarks":[],"end_to_end":{"seed_wall_s":100,"optimized_wall_s":50}}`
	prEntries, err := Ingest([]byte(pr), "pr.json", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range prEntries {
		if _, ok := e.Metrics["fast.e2e.wall_s"]; !ok {
			t.Fatalf("%s: fast e2e metric not prefixed: %v", e.Source.Name, keysOf(e.Metrics))
		}
	}
}

func keysOf(m map[string]Metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestIngestLoad(t *testing.T) {
	doc := `{"schema":"wlload/v1","target":"x","clients":4,"phases":2,"requests_per_phase":8,"dur_ms":100,
	  "submitted":16,"completed":16,"shed":1,"http_5xx":0,"failed":0,
	  "throughput_rps":120.5,"cells_per_sec":900,
	  "latency":{"p50_ms":2,"p95_ms":9,"p99_ms":12,"mean_ms":3,"max_ms":15},
	  "cells":{"total":32,"computed":20,"from_journal":6,"from_shared":6,"deduped":6,"failed":0,"skipped":0,"retries":0},
	  "dedup_ratio":0.18,"shed_rate":0.05,"sweeps":[]}`
	entries, err := Ingest([]byte(doc), "load.json", "")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ingest: %v", err)
	}
	m := entries[0].Metrics
	if m["load.latency.p95_ms"].Kind != KindLatency || m["load.latency.p95_ms"].Value != 9 {
		t.Fatalf("p95: %+v", m["load.latency.p95_ms"])
	}
	if m["load.http_5xx"].Kind != KindExact || m["load.throughput_rps"].Kind != KindPerf {
		t.Fatalf("kinds: %+v %+v", m["load.http_5xx"], m["load.throughput_rps"])
	}
	if m["load.dedup_ratio"].Kind != KindInfo {
		t.Fatalf("dedup_ratio must be info: %+v", m["load.dedup_ratio"])
	}
}

func TestIngestProm(t *testing.T) {
	exp := "# TYPE wlserve_cell_us histogram\n" +
		"wlserve_cell_us_bucket{le=\"10\"} 1\n" +
		"wlserve_cell_us_bucket{le=\"+Inf\"} 2\n" +
		"wlserve_cell_us_sum 14\n" +
		"wlserve_cell_us_count 2\n" +
		"# TYPE wlserve_sweeps_total counter\n" +
		"wlserve_sweeps_total 7\n"
	entries, err := Ingest([]byte(exp), "http://x/metrics", "scrape")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ingest: %v", err)
	}
	m := entries[0].Metrics
	if m["prom.wlserve_sweeps_total"].Value != 7 || m["prom.wlserve_sweeps_total"].Kind != KindInfo {
		t.Fatalf("counter: %+v", m["prom.wlserve_sweeps_total"])
	}
	for name := range m {
		if strings.Contains(name, "_bucket") {
			t.Fatalf("bucket sample leaked into metrics: %s", name)
		}
	}
	if _, ok := m["prom.wlserve_cell_us_sum"]; !ok {
		t.Fatal("histogram _sum must be kept")
	}
}

// --- the real repo trajectory ---------------------------------------

// TestGateRealBaselines replays the committed BENCH_PR5 → BENCH_PR8
// reports: the recorded optimization history must pass the gate (the
// end-to-end wall time *improved*), and appending a synthetically
// slowed copy of PR-8 on the same (unknown) host must fail it.
func TestGateRealBaselines(t *testing.T) {
	pr5, err := os.ReadFile("../../BENCH_PR5.json")
	if err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	pr8, err := os.ReadFile("../../BENCH_PR8.json")
	if err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	for _, in := range []struct {
		raw  []byte
		name string
	}{{pr5, "BENCH_PR5.json"}, {pr8, "BENCH_PR8.json"}} {
		entries, err := Ingest(in.raw, in.name, in.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, _, err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Len() != 3 { // PR5 seed + PR5 optimized + PR8
		t.Fatalf("entries: %d, want 3", s.Len())
	}
	rep := Gate(s, GateConfig{})
	if rep.Regressions != 0 {
		t.Fatalf("real trajectory must pass: %+v", rep.Findings)
	}
	f := findFinding(t, rep, "e2e.wall_s")
	if f.Verdict != "improved" || f.Baseline != 235.5 || f.Latest != 123.5 {
		t.Fatalf("e2e.wall_s: %+v", f)
	}

	// Now the synthetic regression: PR-8 again, every sha cell 10x
	// slower. Hosts match (both unknown fingerprints), so it gates.
	var doc map[string]any
	if err := json.Unmarshal(pr8, &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc["results"].([]any) {
		cell := r.(map[string]any)
		cell["ns_per_op"] = cell["ns_per_op"].(float64) * 10
	}
	slowed, _ := json.Marshal(doc)
	entries, err := Ingest(slowed, "slowed.json", "slowed")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	rep = Gate(s, GateConfig{})
	if rep.Regressions == 0 {
		t.Fatal("10x ns_per_op on every cell must fail the gate")
	}
	for _, f := range rep.Findings {
		if f.Regressed() && !strings.HasSuffix(f.Metric, "ns_per_op") &&
			!strings.HasSuffix(f.Metric, "host_ns") && !strings.HasSuffix(f.Metric, "sim_instrs_per_sec") {
			t.Fatalf("only the perturbed perf metrics may fail: %+v", f)
		}
	}
}

// --- rendering ------------------------------------------------------

func TestTrendTableAndDashboard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	s, _ := Open(path)
	s.Append(testEntry("a", hostA, map[string]Metric{
		"cell.wl.sha.tr1.ns_per_op": {Value: 16.7, Unit: "ns/op", Dir: "lower", Kind: KindPerf},
	}))
	s.Append(testEntry("b", hostA, map[string]Metric{
		"cell.wl.sha.tr1.ns_per_op": {Value: 12.1, Unit: "ns/op", Dir: "lower", Kind: KindPerf},
	}))

	trend := TrendTable(s, "")
	if !strings.Contains(trend, "ns_per_op") || !strings.Contains(trend, "▁") {
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

	page := Dashboard(s, rep)
	for _, want := range []string{
		"<!doctype html>", "<svg", "data-tip", "prefers-color-scheme: dark",
		"ns_per_op", "table view", "no drift",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Metric names are attacker-ish strings in principle; ensure the
	// page escapes what it interpolates.
	s.Append(testEntry("evil", hostA, map[string]Metric{
		"cell.<script>.x.y.z": {Value: 1, Kind: KindInfo},
	}))
	page = Dashboard(s, Gate(s, GateConfig{}))
	if strings.Contains(page, "cell.<script>") {
		t.Fatal("unescaped metric name in dashboard")
	}
}
