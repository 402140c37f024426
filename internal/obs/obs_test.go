package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// A nil recorder must absorb every event site without panicking —
// this is the disabled-instrumentation contract every hook relies on.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.StoreStall(0, 10, 0x40)
	r.WritebackIssued(0, 0x40)
	r.WritebackACK(0, 150, 0x40)
	r.WritebackDropped(5, 0x40)
	r.DirtyDepth(0, 3)
	r.CheckpointDone(0, 100, true, 1e-9, 4)
	r.PowerFailure(0, 3.0, false)
	r.Outage(0, 100)
	r.RestoreDone(100, 200, 1e-9)
	r.VoltageMark(0, 3.2)
	r.Adapt(0, 6, 7, true)
	r.Thresholds(6, 5)
	r.PortWait(0, 12, 0x40, true, false)
	if l := r.Attribute(1000, 100); l.SumPS() != 1000 {
		t.Fatalf("nil-recorder ledger sum %d, want 1000", l.SumPS())
	}
	r.FaultTornWrite(0, 0x40, 3, 16)
	if g := r.VoltageGauge(); g != nil {
		t.Fatalf("nil recorder returned non-nil gauge")
	}
	r.VoltageGauge().Set(3.0) // nil gauge must also be inert
	if r.Registry() != nil || r.Trace() != nil {
		t.Fatal("nil recorder exposed live internals")
	}
	m := r.Manifest()
	if m.Schema != Schema || len(m.Counters) != 0 {
		t.Fatalf("nil recorder manifest: %+v", m)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Push(Event{TS: int64(i), Kind: KDirty, A: int64(i)})
	}
	if tr.Pushed() != 10 || tr.Dropped() != 6 || tr.Len() != 4 {
		t.Fatalf("pushed=%d dropped=%d len=%d", tr.Pushed(), tr.Dropped(), tr.Len())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.TS != want {
			t.Fatalf("event %d has TS %d, want %d (ring must keep the newest window in order)", i, e.TS, want)
		}
	}
}

// histSnap observes vals into a fresh histogram and returns its
// manifest snapshot.
func histSnap(t *testing.T, vals ...float64) HistSnap {
	t.Helper()
	r := NewRecorder(RunMeta{}, 1)
	h := r.Registry().Histogram("v", DirLower)
	for _, v := range vals {
		h.Observe(v)
	}
	for _, s := range r.Manifest().Histograms {
		if s.Name == "v" {
			return s
		}
	}
	t.Fatal("manifest lacks histogram v")
	return HistSnap{}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	if h := histSnap(t); !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN")
	}
	if h := histSnap(t, 1500); h.Count != 1 || h.Quantile(0.5) != 1500 || h.Mean() != 1500 {
		t.Fatalf("single-sample histogram: count=%d p50=%g mean=%g", h.Count, h.Quantile(0.5), h.Mean())
	}
	vals := []float64{1500}
	for i := 0; i < 99; i++ {
		vals = append(vals, 100)
	}
	// 99 samples near 100 and one at 1500: p50 lands in the [64,128)
	// bucket, p99+ reaches the outlier's bucket.
	h := histSnap(t, vals...)
	if p := h.Quantile(0.5); p < 64 || p >= 128 {
		t.Fatalf("p50 %g outside the 100-bucket", p)
	}
	if p := h.Quantile(1.0); p < 1024 || p > 1500 {
		t.Fatalf("p100 %g missed the outlier bucket", p)
	}
	if h := histSnap(t, 100, -5); h.Min != 0 {
		t.Fatalf("negative observation must clamp to 0, min=%g", h.Min)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[float64]int{0: 0, 0.5: 0, 1: 1, 1.9: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%g) = %d, want %d", v, got, want)
		}
	}
	if got := bucketOf(math.Pow(2, 200)); got != histBuckets-1 {
		t.Errorf("huge value bucket %d, want tail %d", got, histBuckets-1)
	}
}

func TestChromeExportIsLoadableJSON(t *testing.T) {
	r := NewRecorder(RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 128)
	r.StoreStall(100, 300, 0x1000)
	r.WritebackIssued(300, 0x1000)
	r.WritebackACK(300, 450, 0x1000)
	r.DirtyDepth(310, 5)
	r.PowerFailure(500, 2.95, false)
	r.CheckpointDone(500, 900, false, 2e-9, 5)
	r.Outage(900, 5000)
	r.RestoreDone(5000, 6000, 5e-11)
	r.Adapt(6000, 6, 7, false)
	r.FaultTornWrite(7000, 0x2000, 3, 16)

	var buf bytes.Buffer
	if err := r.Trace().WriteChrome(&buf, r.Meta); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e["name"].(string)] = true
		ph := e["ph"].(string)
		if ph != "X" && ph != "i" && ph != "C" && ph != "M" {
			t.Fatalf("unknown phase %q in %v", ph, e)
		}
	}
	for _, want := range []string{"store-stall", "writeback", "dirty-lines", "power-failure",
		"checkpoint", "off", "restore", "adapt", "torn-write", "process_name"} {
		if !names[want] {
			t.Fatalf("export missing event %q; have %v", want, names)
		}
	}
}

func TestManifestRoundTripAndSelfDiff(t *testing.T) {
	r := NewRecorder(RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 64)
	r.StoreStall(0, 1000, 0x40)
	r.DirtyDepth(0, 4)
	r.DirtyDepth(10, 5)
	r.WritebackACK(0, 150000, 0x40)
	r.Registry().Gauge("result.exec_ps", DirLower).Set(1e9)

	var buf bytes.Buffer
	if err := AppendManifest(&buf, r.Manifest()); err != nil {
		t.Fatal(err)
	}
	if err := AppendManifest(&buf, r.Manifest()); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadManifests(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("read %d manifests, want 2", len(ms))
	}
	if ms[0].Design != "wl" || ms[0].Workload != "sha" || ms[0].Trace != "tr1" {
		t.Fatalf("meta lost in round trip: %+v", ms[0].RunMeta)
	}

	// Two snapshots of one recorder must read back identical.
	if !reflect.DeepEqual(ms[0], ms[1]) {
		t.Fatalf("self-comparison differs:\n%+v\n%+v", ms[0], ms[1])
	}
}

func TestSummarizeMentionsKeySections(t *testing.T) {
	r := NewRecorder(RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 64)
	for d := 0; d < 7; d++ {
		r.DirtyDepth(int64(d), d)
	}
	r.StoreStall(0, 123, 0x40)
	r.Thresholds(6, 5)
	out := Summarize(r.Manifest())
	for _, want := range []string{"wl / sha / tr1", "dq.occupancy", "core.stalls", "DirtyQueue occupancy", "core.maxline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// Manifest round-trips must preserve histograms at the edges: never
// observed, a single sample, and values past the last finite bucket
// bound (whose open tail is encoded as Upper == 0 in JSON).
func TestManifestHistogramEdgeCases(t *testing.T) {
	r := NewRecorder(RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 16)
	r.Registry().Histogram("edge.empty", DirLower)
	r.Registry().Histogram("edge.single", DirLower).Observe(42)
	r.Registry().Histogram("edge.huge", DirLower).Observe(math.Pow(2, 100))

	var buf bytes.Buffer
	if err := AppendManifest(&buf, r.Manifest()); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadManifests(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(name string) HistSnap {
		for _, h := range ms[0].Histograms {
			if h.Name == name {
				return h
			}
		}
		t.Fatalf("round trip lost histogram %q", name)
		return HistSnap{}
	}
	if h := snap("edge.empty"); h.Count != 0 || len(h.Buckets) != 0 || !math.IsNaN(h.Mean()) {
		t.Fatalf("empty histogram round trip: %+v", h)
	}
	if h := snap("edge.single"); h.Count != 1 || h.Sum != 42 || h.Min != 42 || h.Max != 42 || len(h.Buckets) != 1 {
		t.Fatalf("single-sample histogram round trip: %+v", h)
	}
	h := snap("edge.huge")
	if h.Count != 1 || h.Max != math.Pow(2, 100) {
		t.Fatalf("overflow histogram round trip: %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0].Upper != 0 || h.Buckets[0].Count != 1 {
		t.Fatalf("tail bucket must encode as Upper=0: %+v", h.Buckets)
	}
}

// Adapt must move the threshold gauges so manifests show the final
// configuration.
func TestAdaptUpdatesThresholdGauges(t *testing.T) {
	r := NewRecorder(RunMeta{}, 16)
	r.Thresholds(6, 5)
	r.Adapt(100, 6, 8, true)
	if got := r.Registry().Gauge("core.maxline", DirNone).Last(); got != 8 {
		t.Fatalf("maxline gauge %g after adapt, want 8", got)
	}
}
