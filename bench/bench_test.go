package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wlcache/internal/expt"
	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallRun runs a workload at smoke size: two kernels per simulator
// matrix and one service cycle with two restarts, for one pass (two
// when traced, which alternates).
func smallRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	cfg := config{workload: name, seed: 1, seconds: 1e-3, trace: trace, root: "..", out: t.TempDir()}
	var rep *report
	var err error
	if name == "serve-resume" {
		rep, err = runServe(cfg, serveWorkload{restarts: 2})
	} else {
		w, ok := simWorkloads()[name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", name)
		}
		w.kernels = []string{"adpcmencode", "basicmath"}
		if w.matrix == "outage" {
			w.kernels = []string{"sha", "qsort"}
		}
		rep, err = runSim(cfg, w)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d outcomes failed their check", rep.failed, rep.attempted)
	}
	return rep
}

// checkMetrics asserts that got carries exactly the metrics want names,
// each finite with its unit; never-zero metrics must also be positive.
func checkMetrics(t *testing.T, got []metric, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	byName := map[string]metric{}
	for _, m := range got {
		if _, dup := byName[m.Name]; dup {
			t.Errorf("metric %s reported twice", m.Name)
		}
		byName[m.Name] = m
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		case positive && (m.Value <= 0 || m.N < 1):
			t.Errorf("metric %s = %v over n=%d, want a positive value over n>=1", w.Name, m.Value, m.N)
		case m.N < 0:
			t.Errorf("metric %s has n=%d", w.Name, m.N)
		}
		delete(byName, w.Name)
	}
	for name := range byName {
		t.Errorf("metric %s is not in BENCHMARK.json", name)
	}
}

// TestSmoke runs every BENCHMARK.json workload at a reduced size, plain
// and traced, and checks that each metric is reported with its unit and
// sample count, and that the summary line has the documented shape.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := smallRun(t, w.Name, false)
			checkMetrics(t, rep.endToEnd, spec.EndToEnd, true)

			var buf bytes.Buffer
			if err := writeSummary(&buf, config{}, rep); err != nil {
				t.Fatal(err)
			}
			var summary map[string]json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := summary[k]; !ok || len(summary) != 4 {
					t.Errorf("summary %s lacks %q or has extra keys", buf.String(), k)
				}
			}

			traced := smallRun(t, w.Name, true)
			checkMetrics(t, traced.perLayer, spec.PerLayer, false)
			for _, m := range traced.perLayer {
				if m.Name == "profile.named_frac" && m.N > 0 && m.Value < 0.95 {
					t.Errorf("only %.3f of %d traced CPU samples fall in a named layer", m.Value, m.N)
				}
			}
		})
	}
}

// TestSeedOneTracesAreBuiltin pins the seed contract: seed 1 gives the
// built-in tr1-tr3 sample for sample, so seed-1 outcomes are the paper
// configuration's.
func TestSeedOneTracesAreBuiltin(t *testing.T) {
	traces := seededTraces(1)
	for _, src := range []power.Source{power.Trace1, power.Trace2, power.Trace3} {
		got, want := traces[src], power.Get(src)
		if got.Name != want.Name || got.Step != want.Step || !reflect.DeepEqual(got.Samples, want.Samples) {
			t.Errorf("seed-1 %s differs from the built-in trace", src)
		}
	}
	if traces[power.None] != nil {
		t.Error("power.None must map to uninterrupted power")
	}
	if reflect.DeepEqual(seededTraces(2)[power.Trace1].Samples, traces[power.Trace1].Samples) {
		t.Error("seed 2 reproduces seed 1's tr1")
	}
}

// TestTracedDesignForwardsInterfaces checks that the design wrapper
// offers every optional interface the simulator looks for, and the
// access fast path exactly when the wrapped design has it.
func TestTracedDesignForwardsInterfaces(t *testing.T) {
	for _, kind := range expt.AllKinds() {
		d, _ := expt.NewDesign(kind, expt.Options{})
		w := wrapDesign(d, &cellStats{})
		if _, ok := w.(sim.Rebooter); !ok {
			t.Errorf("%s: wrapper lacks Rebooter", kind)
		}
		if _, ok := w.(sim.ExtraStatser); !ok {
			t.Errorf("%s: wrapper lacks ExtraStatser", kind)
		}
		if _, ok := w.(sim.EnergyProbeBinder); !ok {
			t.Errorf("%s: wrapper lacks EnergyProbeBinder", kind)
		}
		if _, ok := w.(sim.ReserveNotifyBinder); !ok {
			t.Errorf("%s: wrapper lacks ReserveNotifyBinder", kind)
		}
		_, innerEB := d.(sim.EBAccessor)
		if _, wrapEB := w.(sim.EBAccessor); wrapEB != innerEB {
			t.Errorf("%s: wrapper EBAccessor %t, design %t", kind, wrapEB, innerEB)
		}
		if w.Name() != d.Name() || w.ReserveEnergy() != d.ReserveEnergy() {
			t.Errorf("%s: wrapper does not forward Name/ReserveEnergy", kind)
		}
	}
}

// TestTracingKeepsResults runs every design kind on both tiers with and
// without the wrappers: recording must not change what is measured.
func TestTracingKeepsResults(t *testing.T) {
	traces := seededTraces(1)
	for _, tier := range []sim.Tier{sim.TierExact, sim.TierFast} {
		for _, kind := range expt.AllKinds() {
			w := simWorkload{tier: tier}
			c := cellSpec{kind, "adpcmencode", power.Trace1}
			plain, perr := simulate(c, w, traces[c.src], nil)
			st := &cellStats{rng: 1}
			traced, terr := simulate(c, w, traces[c.src], st)
			if (perr == nil) != (terr == nil) || (perr != nil && perr.Error() != terr.Error()) {
				t.Errorf("%s %s: error %v plain, %v traced", tier, kind, perr, terr)
				continue
			}
			if !reflect.DeepEqual(expt.FlattenResult(plain), expt.FlattenResult(traced)) {
				t.Errorf("%s %s: tracing changed the result", tier, kind)
			}
		}
	}
}

// TestExpectedAgreesWithGolden cross-checks the committed expected file
// against the 78-cell golden on the cells both pin: the figure designs
// on adpcmencode and sha, without power failures and on tr1.
func TestExpectedAgreesWithGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", expectedPath))
	if err != nil {
		t.Fatal(err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	golden, err := expt.LoadGoldenFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var overlap []expt.GoldenCell
	for _, c := range f.Matrices["fig"] {
		if (c.Workload == "adpcmencode" || c.Workload == "sha") && (c.Trace == "none" || c.Trace == "tr1") {
			overlap = append(overlap, c)
		}
	}
	if want := len(figKinds) * 2 * 2; len(overlap) != want {
		t.Fatalf("expected file has %d cells overlapping the golden, want %d", len(overlap), want)
	}
	if err := expt.CompareGoldenCells(overlap, golden, true); err != nil {
		t.Fatal(err)
	}
}

// TestEveryKernelHasUninterruptedRun checks that the expected file pins
// the run without power failures that seeds other than 1 compare every
// cell of every simulator workload against.
func TestEveryKernelHasUninterruptedRun(t *testing.T) {
	exp, err := loadExpected("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range simWorkloads() {
		for _, k := range w.kernels {
			if _, ok := exp.uninterrupted[k]; !ok {
				t.Errorf("%s: %s has no uninterrupted run in %s", name, k, expectedPath)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"wlcache/internal/sim.(*Simulator).access":           "sim",
		"wlcache/internal/core.(*WLCache).AccessEB":          "core",
		"wlcache/internal/runner.RunCells.func1":             "runner",
		"wlcache/internal/expt.NewDesign":                    "other",
		"main.(*tracedDesignEB).AccessEB":                    "bench",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKey":            "runtime",
		"type:.eq.wlcache/internal/sim.Result":               "runtime",
		"encoding/json.(*encodeState).marshal":               "stdlib",
		"slices.SortFunc[go.shape.[]wlcache/internal/sim.X]": "stdlib",
		"sync.(*Mutex).Lock":                                 "stdlib",
		"":                                                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
