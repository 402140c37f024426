package power

import (
	"math"
	"testing"
	"testing/quick"
)

func flatTrace(watts float64) *Trace {
	return &Trace{Name: "flat", Step: 1000, Samples: []float64{watts, watts}}
}

func TestTraceAtAndWrap(t *testing.T) {
	tr := &Trace{Name: "x", Step: 10, Samples: []float64{1, 2, 3}}
	cases := []struct {
		ps   int64
		want float64
	}{{0, 1}, {9, 1}, {10, 2}, {29, 3}, {30, 1}, {45, 2}}
	for _, c := range cases {
		if got := tr.At(c.ps); got != c.want {
			t.Errorf("At(%d) = %g, want %g", c.ps, got, c.want)
		}
	}
}

func TestTraceMeanAndDuration(t *testing.T) {
	tr := &Trace{Step: 10, Samples: []float64{1, 3}}
	if tr.Mean() != 2 {
		t.Fatalf("Mean = %g", tr.Mean())
	}
	if tr.Duration() != 20 {
		t.Fatalf("Duration = %d", tr.Duration())
	}
}

func TestTraceIntegrateFlat(t *testing.T) {
	tr := flatTrace(2.0) // 2 W
	// 1 ns at 2 W = 2e-9 J... our unit: ps -> 1000 ps = 1e-9 s.
	got := tr.Integrate(0, 1000)
	want := 2.0 * 1e-9
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Integrate = %g, want %g", got, want)
	}
	// Spanning segments and wrap.
	got = tr.Integrate(500, 4500)
	want = 2.0 * 4e-9
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("spanning Integrate = %g, want %g", got, want)
	}
	if tr.Integrate(100, 100) != 0 || tr.Integrate(200, 100) != 0 {
		t.Fatal("degenerate windows must integrate to zero")
	}
}

func TestTraceTimeToHarvest(t *testing.T) {
	tr := flatTrace(1.0) // 1 W
	dt, ok := tr.TimeToHarvest(0, 1e-9)
	if !ok {
		t.Fatal("flat trace cannot fail")
	}
	// 1e-9 J at 1 W = 1e-9 s = 1000 ps (+1 rounding).
	if dt < 1000 || dt > 1002 {
		t.Fatalf("dt = %d, want ~1000", dt)
	}
	if dt, ok = tr.TimeToHarvest(12345, 0); !ok || dt != 0 {
		t.Fatal("zero joules must take zero time")
	}
	dead := &Trace{Step: 10, Samples: []float64{0}}
	if _, ok := dead.TimeToHarvest(0, 1); ok {
		t.Fatal("all-zero trace claims it can harvest")
	}
}

// Property: TimeToHarvest is consistent with Integrate.
func TestTraceQuickHarvestConsistency(t *testing.T) {
	tr := Get(Trace1)
	f := func(fromSeed uint32, joulesSeed uint8) bool {
		from := int64(fromSeed % 1e9)
		joules := (float64(joulesSeed) + 1) * 1e-7
		dt, ok := tr.TimeToHarvest(from, joules)
		if !ok {
			return false
		}
		got := tr.Integrate(from, from+dt)
		// The found window must supply the energy, and one step less
		// must not (within a sample of slack).
		return got >= joules*(1-1e-6) && tr.Integrate(from, from+dt-tr.Step) < joules
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinTraces(t *testing.T) {
	if Get(None) != nil {
		t.Fatal("None must have no trace")
	}
	means := map[Source]float64{}
	for _, src := range Sources() {
		tr := Get(src)
		if tr == nil || len(tr.Samples) == 0 {
			t.Fatalf("source %s empty", src)
		}
		for _, p := range tr.Samples {
			if p < 0 {
				t.Fatalf("source %s has negative power", src)
			}
		}
		means[src] = tr.Mean()
	}
	// Stability/strength ordering: thermal and solar are the strong
	// sources; the RF traces get progressively weaker tr1 > tr2 > tr3.
	if !(means[Thermal] > means[Solar] && means[Solar] > means[Trace1] &&
		means[Trace1] > means[Trace2] && means[Trace2] > means[Trace3]) {
		t.Fatalf("mean-power ordering violated: %v", means)
	}
}

func TestTracesDeterministic(t *testing.T) {
	a, b := Get(Trace1), Get(Trace1)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown source accepted")
		}
	}()
	Get(Source("bogus"))
}

// TestSynthesizeRFParameters: the exported generator responds to its
// knobs in the documented direction.
func TestSynthesizeRFParameters(t *testing.T) {
	quiet := SynthesizeRF("a", 1, 10e-3, 0.2, 0.0)
	bursty := SynthesizeRF("b", 1, 10e-3, 0.2, 0.4)
	if bursty.Mean() >= quiet.Mean() {
		t.Fatalf("dead zones should lower the mean: %g vs %g", bursty.Mean(), quiet.Mean())
	}
	// Determinism per seed; difference across seeds.
	if SynthesizeRF("c", 5, 10e-3, 0.5, 0.1).Samples[100] != SynthesizeRF("d", 5, 10e-3, 0.5, 0.1).Samples[100] {
		t.Fatal("same seed must reproduce")
	}
	if SynthesizeRF("e", 5, 10e-3, 0.5, 0.1).Mean() == SynthesizeRF("f", 6, 10e-3, 0.5, 0.1).Mean() {
		t.Fatal("different seeds suspiciously identical")
	}
}

// TestSynthesizeSmoothStability: the smooth generator is far less
// volatile than the RF one.
func TestSynthesizeSmoothStability(t *testing.T) {
	smooth := SynthesizeSmooth("s", 1, 20e-3, 0.05)
	rf := SynthesizeRF("r", 1, 20e-3, 1.0, 0.2)
	cv := func(tr *Trace) float64 {
		m := tr.Mean()
		v := 0.0
		for _, p := range tr.Samples {
			v += (p - m) * (p - m)
		}
		return v / float64(len(tr.Samples)) / (m * m)
	}
	if cv(smooth) >= cv(rf) {
		t.Fatal("smooth source more volatile than RF")
	}
}
