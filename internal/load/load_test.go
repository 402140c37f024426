package load

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlcache/internal/serve"
)

// testTarget boots an in-process wlserve on a temp data dir and
// returns its base URL.
func testTarget(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// A full Run against a live server: every submission completes, the
// overlapping specs produce a non-zero dedup ratio, latency
// percentiles are ordered, and every phase's /metrics scrape parsed.
func TestRunAgainstLiveServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	primary := serve.Spec{
		Designs:   []string{"nvsram", "nocache", "wl"},
		Workloads: []string{"adpcmencode"},
		Traces:    []string{"none"},
	}
	subset := primary
	subset.Designs = []string{"wl"}

	cfg := Config{
		Base:     testTarget(t),
		Clients:  3,
		Requests: 6,
		Phases:   2,
		Specs:    []serve.Spec{primary, subset},
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Schema != Schema {
		t.Fatalf("schema %q", rep.Schema)
	}
	want := cfg.Requests * cfg.Phases
	if rep.Submitted != want || rep.Completed != want {
		t.Fatalf("submitted %d completed %d, want %d each (errors: %v)",
			rep.Submitted, rep.Completed, want, rep.Errors)
	}
	if rep.Shed != 0 || rep.HTTP5xx != 0 || rep.Failed != 0 {
		t.Fatalf("shed=%d 5xx=%d failed=%d, want all zero (errors: %v)",
			rep.Shed, rep.HTTP5xx, rep.Failed, rep.Errors)
	}

	// 12 submissions alternating a 3-cell and a 1-cell spec request 24
	// cells, but only 3 distinct ones exist — almost everything dedups.
	if rep.Cells.Total != 24 {
		t.Fatalf("cells total %d, want 24", rep.Cells.Total)
	}
	if rep.Cells.Computed != 3 {
		t.Fatalf("computed %d cells, want exactly 3 (one per distinct cell)", rep.Cells.Computed)
	}
	wantRatio := 1 - 3.0/24
	if math.Abs(rep.DedupRatio-wantRatio) > 1e-9 {
		t.Fatalf("dedup ratio %v, want %v", rep.DedupRatio, wantRatio)
	}

	l := rep.Latency
	if l.P50MS <= 0 || l.P50MS > l.P95MS || l.P95MS > l.P99MS || l.P99MS > l.MaxMS {
		t.Fatalf("latency percentiles not ordered: %+v", l)
	}
	if rep.ThroughputRPS <= 0 || rep.CellsPerSec <= 0 {
		t.Fatalf("rates not positive: %+v", rep)
	}

	if len(rep.Scrapes) != cfg.Phases+1 {
		t.Fatalf("%d scrapes, want %d (pre-run + one per phase)", len(rep.Scrapes), cfg.Phases+1)
	}
	for _, sc := range rep.Scrapes {
		if sc.PromSamples <= 0 {
			t.Fatalf("phase %d scrape has no Prometheus samples", sc.Phase)
		}
	}
	last := rep.Scrapes[len(rep.Scrapes)-1].Metrics
	if got := last[`wlserve_sweeps_total{state="completed"}`]; int(got) != want {
		t.Fatalf("final scrape reports %v completed sweeps, want %d", got, want)
	}
	if got := last[`wlserve_cells_total{outcome="computed"}`]; int(got) != rep.Cells.Computed {
		t.Fatalf("final scrape reports %v computed cells, the done events %d", got, rep.Cells.Computed)
	}

	if len(rep.Sweeps) != 2 {
		t.Fatalf("distinct sweeps %v, want 2 (one per spec)", rep.Sweeps)
	}

	// The report round-trips through its own reader and summarizer.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Completed != rep.Completed || back.DedupRatio != rep.DedupRatio {
		t.Fatalf("round-trip lost data: %+v vs %+v", back, rep)
	}
	out := Summarize(back)
	for _, row := range []string{"latency_p50_ms", "dedup_ratio", "throughput_rps"} {
		if !strings.Contains(out, row) {
			t.Fatalf("summary lacks %s:\n%s", row, out)
		}
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"schema":"other/v1"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}, {1.0, 100},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %v", got)
	}
	one := []float64{42}
	for _, q := range []float64{0.5, 0.99} {
		if got := percentile(one, q); got != 42 {
			t.Errorf("percentile single (%v) = %v", q, got)
		}
	}
}
