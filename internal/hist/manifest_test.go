package hist

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"wlcache/internal/obs"
)

// The gate is the one judge of wlobs/v1 manifests. These tests build
// synthetic manifests, run them through Ingest → Store.Append → Gate,
// and check that every manifest metric is judged as a directed exact
// simulated outcome.

// manifest builds a one-cell manifest: stalls store stalls of 1000 ps
// each (counter core.stalls, histogram core.stall_ps), a higher-is-
// better instruction gauge and the direction-none checksum gauge.
func manifest(stalls int, instr, checksum float64, extra ...string) obs.Manifest {
	r := obs.NewRecorder(obs.RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 16)
	for i := 0; i < stalls; i++ {
		r.StoreStall(int64(i)*2000, int64(i)*2000+1000, 0x40)
	}
	r.Registry().Gauge("result.instructions", obs.DirHigher).Set(instr)
	r.Registry().Gauge("result.checksum", obs.DirNone).Set(checksum)
	for _, name := range extra {
		r.Registry().Gauge(name, obs.DirNone).Set(5)
	}
	return r.Manifest()
}

// gateManifests records each manifest as its own run, under the
// matching key (the running process's key when keys is short), and
// gates the store.
func gateManifests(t *testing.T, keys []Key, ms ...obs.Manifest) (*Store, GateReport) {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "h.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		var buf bytes.Buffer
		if err := obs.AppendManifest(&buf, m); err != nil {
			t.Fatal(err)
		}
		entries, err := Ingest(buf.Bytes(), fmt.Sprintf("run%d/manifest.jsonl", i), "")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if i < len(keys) {
				e.Key = keys[i]
			}
			if _, _, err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, Gate(s, GateConfig{})
}

const cellPrefix = "obs.wl.sha.tr1."

func TestGateJudgesManifestByDirection(t *testing.T) {
	base := manifest(10, 100, 7)
	for _, tc := range []struct {
		name    string
		next    obs.Manifest
		metric  string
		verdict string
	}{
		// core.stalls is a lower-is-better counter.
		{"stalls rise", manifest(15, 100, 7), "core.stalls", "regressed"},
		{"stalls fall", manifest(5, 100, 7), "core.stalls", "improved"},
		// result.instructions is a higher-is-better gauge here.
		{"gauge falls", manifest(10, 50, 7), "result.instructions.last", "regressed"},
		{"gauge rises", manifest(10, 200, 7), "result.instructions.last", "improved"},
	} {
		_, rep := gateManifests(t, nil, base, tc.next)
		if f := findFinding(t, rep, cellPrefix+tc.metric); f.Verdict != tc.verdict {
			t.Errorf("%s: %s verdict %q, want %q: %+v", tc.name, tc.metric, f.Verdict, tc.verdict, f)
		}
		wantRegs := 0
		if tc.verdict == "regressed" {
			wantRegs = 1
			if tc.metric == "result.instructions.last" {
				wantRegs = 2 // .last and .max both fall
			}
		}
		if rep.Regressions != wantRegs {
			t.Errorf("%s: %d regression(s), want %d: %+v", tc.name, rep.Regressions, wantRegs, rep.Findings)
		}
	}
}

func TestGateFlagsManifestChecksumChange(t *testing.T) {
	_, rep := gateManifests(t, nil, manifest(10, 100, 7), manifest(10, 100, 8))
	f := findFinding(t, rep, cellPrefix+"result.checksum.last")
	if !f.Regressed() || f.Note != "exact value changed" {
		t.Fatalf("a changed checksum must regress: %+v", f)
	}
}

func TestGateIdenticalManifestsOK(t *testing.T) {
	_, rep := gateManifests(t, nil, manifest(10, 100, 7), manifest(10, 100, 7))
	if rep.Compared == 0 || rep.Regressions != 0 || rep.Skipped != 0 {
		t.Fatalf("identical manifests: %d compared, %d skipped, %d regression(s)",
			rep.Compared, rep.Skipped, rep.Regressions)
	}
	for _, f := range rep.Findings {
		if f.Kind != KindExact || f.Verdict != "ok" {
			t.Errorf("identical manifests: %+v", f)
		}
	}
}

func TestGateSkipsManifestsFromAnotherEngine(t *testing.T) {
	keys := []Key{
		{Engine: "wlcache-sim/5", Host: hostA.Host},
		{Engine: "wlcache-sim/6", Host: hostA.Host},
	}
	_, rep := gateManifests(t, keys, manifest(10, 100, 7), manifest(15, 50, 8))
	if rep.Compared != 0 || rep.Regressions != 0 || rep.Skipped == 0 {
		t.Fatalf("engine conflict: %d compared, %d skipped, %d regression(s)",
			rep.Compared, rep.Skipped, rep.Regressions)
	}
	if f := findFinding(t, rep, cellPrefix+"result.checksum.last"); f.Verdict != "skipped" {
		t.Fatalf("checksum across engines must skip: %+v", f)
	}
}

// A metric one manifest has and the other lacks (one a code change
// added or removed) is a single-point series: recorded, never judged.
func TestGateIgnoresOneSidedManifestMetrics(t *testing.T) {
	s, rep := gateManifests(t, nil, manifest(10, 100, 7, "old.only"), manifest(10, 100, 7, "new.only"))
	if rep.Compared == 0 || rep.Regressions != 0 {
		t.Fatalf("one-sided metrics: %d compared, %d regression(s)", rep.Compared, rep.Regressions)
	}
	for _, f := range rep.Findings {
		if f.Metric == cellPrefix+"old.only.last" || f.Metric == cellPrefix+"new.only.last" {
			t.Errorf("one-sided metric judged: %+v", f)
		}
	}
	seen := map[string]int{}
	for _, sr := range s.SeriesAll() {
		seen[sr.Name] = len(sr.Points)
	}
	if seen[cellPrefix+"old.only.last"] != 1 || seen[cellPrefix+"new.only.last"] != 1 {
		t.Fatalf("one-sided metrics must still be recorded: %v", seen)
	}
}
