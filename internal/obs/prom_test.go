package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// find returns the parsed samples matching a base name.
func find(samples []PromSample, name string) []PromSample {
	var out []PromSample
	for _, s := range samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// The registry's Prometheus rendering round-trips through the
// validating parser: counters, gauges and histograms with embedded
// label blocks all come back with the values that went in.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`requests_total{route="/v1/sweeps",code="200"}`, DirNone).Add(7)
	r.Counter(`requests_total{route="/metrics",code="200"}`, DirNone).Add(3)
	r.Gauge("queue_depth", DirLower).Set(4)
	h := r.Histogram(`cell_us{outcome="computed"}`, DirLower)
	for _, v := range []float64{1, 10, 100, 1000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, buf.String())
	}

	reqs := find(samples, "requests_total")
	if len(reqs) != 2 {
		t.Fatalf("requests_total: %d series, want 2", len(reqs))
	}
	var total float64
	for _, s := range reqs {
		if s.Labels["code"] != "200" {
			t.Fatalf("requests_total labels: %v", s.Labels)
		}
		total += s.Value
	}
	if total != 10 {
		t.Fatalf("requests_total sum = %v, want 10", total)
	}

	if g := find(samples, "queue_depth"); len(g) != 1 || g[0].Value != 4 {
		t.Fatalf("queue_depth = %+v, want one sample of 4", g)
	}

	if c := find(samples, "cell_us_count"); len(c) != 1 || c[0].Value != 4 {
		t.Fatalf("cell_us_count = %+v, want 4", c)
	}
	if s := find(samples, "cell_us_sum"); len(s) != 1 || s[0].Value != 1111 {
		t.Fatalf("cell_us_sum = %+v, want 1111", s)
	}
	buckets := find(samples, "cell_us_bucket")
	if len(buckets) == 0 {
		t.Fatal("no cell_us_bucket series")
	}
	prev := -1.0
	sawInf := false
	for _, b := range buckets {
		if b.Labels["outcome"] != "computed" {
			t.Fatalf("bucket lost embedded label: %v", b.Labels)
		}
		if b.Value < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v", b.Value, prev)
		}
		prev = b.Value
		if b.Labels["le"] == "+Inf" {
			sawInf = true
			if b.Value != 4 {
				t.Fatalf("+Inf bucket = %v, want total count 4", b.Value)
			}
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}

	// # TYPE groups must be contiguous: each base name announced once.
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			seen[strings.Fields(rest)[0]]++
		}
	}
	for base, n := range seen {
		if n != 1 {
			t.Fatalf("# TYPE %s announced %d times", base, n)
		}
	}
}

// Metric names with characters outside the Prometheus charset are
// sanitized rather than emitted invalid.
func TestWritePrometheusSanitizesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird name/with-dashes", DirNone).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sanitized output does not parse: %v\n%s", err, buf.String())
	}
	if len(samples) != 1 || strings.ContainsAny(samples[0].Name, " /-") {
		t.Fatalf("samples = %+v, want one sanitized name", samples)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name{unterminated=\"v value\n",
		"name not-a-number\n",
		"{nobase=\"v\"} 1\n",
		"na me 1\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
}

// Adversarial expositions a scraper can meet mid-deploy: each is
// rejected with its typed sentinel, so callers can tell a corrupt
// scrape from an I/O failure.
func TestParsePrometheusAdversarial(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  error
	}{
		{
			// Two expositions concatenated — e.g. a proxy gluing together
			// responses from the old and new binary during a deploy.
			name: "duplicate family",
			input: "# TYPE reqs_total counter\nreqs_total 1\n" +
				"# TYPE reqs_total counter\nreqs_total 2\n",
			want: ErrPromDuplicateFamily,
		},
		{
			name: "out-of-order buckets",
			input: "# TYPE lat_us histogram\n" +
				"lat_us_bucket{le=\"100\"} 3\n" +
				"lat_us_bucket{le=\"10\"} 1\n" +
				"lat_us_bucket{le=\"+Inf\"} 4\n" +
				"lat_us_sum 120\nlat_us_count 4\n",
			want: ErrPromBucketOrder,
		},
		{
			name: "duplicate bucket bound",
			input: "# TYPE lat_us histogram\n" +
				"lat_us_bucket{le=\"10\"} 1\n" +
				"lat_us_bucket{le=\"10\"} 2\n" +
				"lat_us_bucket{le=\"+Inf\"} 2\n",
			want: ErrPromBucketOrder,
		},
		{
			name: "bucket after +Inf",
			input: "# TYPE lat_us histogram\n" +
				"lat_us_bucket{le=\"+Inf\"} 4\n" +
				"lat_us_bucket{le=\"10\"} 1\n",
			want: ErrPromBucketOrder,
		},
		{
			name: "missing +Inf bucket",
			input: "# TYPE lat_us histogram\n" +
				"lat_us_bucket{le=\"10\"} 1\n" +
				"lat_us_bucket{le=\"100\"} 3\n" +
				"lat_us_sum 120\nlat_us_count 3\n",
			want: ErrPromMissingInf,
		},
		{
			// The format requires a final line feed; a scrape cut off
			// mid-line (or mid-value) is truncation, not data.
			name:  "truncated exposition",
			input: "# TYPE reqs_total counter\nreqs_total 12",
			want:  ErrPromTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePrometheus(strings.NewReader(tc.input))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// Per-series bucket validation: two label-distinguished series of one
// histogram family interleave legally, and each must close with +Inf
// independently.
func TestParsePrometheusBucketSeries(t *testing.T) {
	good := "# TYPE lat_us histogram\n" +
		"lat_us_bucket{op=\"r\",le=\"10\"} 1\n" +
		"lat_us_bucket{op=\"w\",le=\"10\"} 2\n" +
		"lat_us_bucket{op=\"r\",le=\"+Inf\"} 1\n" +
		"lat_us_bucket{op=\"w\",le=\"+Inf\"} 2\n"
	if _, err := ParsePrometheus(strings.NewReader(good)); err != nil {
		t.Fatalf("interleaved series rejected: %v", err)
	}
	bad := "# TYPE lat_us histogram\n" +
		"lat_us_bucket{op=\"r\",le=\"10\"} 1\n" +
		"lat_us_bucket{op=\"r\",le=\"+Inf\"} 1\n" +
		"lat_us_bucket{op=\"w\",le=\"10\"} 2\n"
	if _, err := ParsePrometheus(strings.NewReader(bad)); !errors.Is(err, ErrPromMissingInf) {
		t.Fatalf("series w missing +Inf: err = %v, want ErrPromMissingInf", err)
	}
	// An empty exposition (e.g. a nil registry) parses to no samples.
	if s, err := ParsePrometheus(strings.NewReader("")); err != nil || len(s) != 0 {
		t.Fatalf("empty exposition: samples=%v err=%v", s, err)
	}
}

// SyncRegistry is safe under concurrent writers and scrapers; the
// final render accounts for every operation.
func TestSyncRegistryConcurrent(t *testing.T) {
	sr := NewSyncRegistry()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sr.Inc(`ops_total{kind="inc"}`, DirNone)
				sr.Observe("lat_us", DirLower, float64(i+1))
				sr.Set("depth", DirLower, float64(w))
				if i%50 == 0 {
					var buf bytes.Buffer
					if err := sr.WritePrometheus(&buf); err != nil {
						t.Errorf("scrape: %v", err)
						return
					}
					if _, err := ParsePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
						t.Errorf("mid-run scrape does not parse: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := sr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Series()] = s.Value
	}
	if v := got[`ops_total{kind="inc"}`]; v != workers*each {
		t.Fatalf("ops_total = %v, want %d", v, workers*each)
	}
	if v := got["lat_us_count"]; v != workers*each {
		t.Fatalf("lat_us count = %v, want %d", v, workers*each)
	}
	if v, want := got["lat_us_sum"], float64(workers*each*(each+1)/2); v != want {
		t.Fatalf("lat_us sum = %v, want %v", v, want)
	}
}

// Add returns the post-increment tally under the registry lock, so
// concurrent callers number their events 1..n with no gaps or repeats.
func TestSyncRegistryAddNumbersEvents(t *testing.T) {
	sr := NewSyncRegistry()
	const workers, each = 8, 200
	seen := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seen[w] = append(seen[w], sr.Add("appends_total", DirNone, 1))
			}
		}(w)
	}
	wg.Wait()
	got := make(map[uint64]bool, workers*each)
	for _, vs := range seen {
		for _, v := range vs {
			if got[v] {
				t.Fatalf("tally %d handed out twice", v)
			}
			got[v] = true
		}
	}
	for v := uint64(1); v <= workers*each; v++ {
		if !got[v] {
			t.Fatalf("tally %d never handed out", v)
		}
	}
}

// A parsed sample's Series key is the registry name that produced it
// when the embedded labels are sorted, whatever order the parser saw.
func TestPromSampleSeries(t *testing.T) {
	r := NewRegistry()
	names := []string{
		"plain_total",
		`cells_total{outcome="computed"}`,
		`requests_total{code="200",route="/v1/sweeps"}`,
	}
	for _, n := range names {
		r.Counter(n, DirNone).Inc()
	}
	r.Gauge(`depth{pool="a"}`, DirNone).Set(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]float64{}
	for _, s := range samples {
		keys[s.Series()] = s.Value
	}
	for _, n := range append(names, `depth{pool="a"}`) {
		if _, ok := keys[n]; !ok {
			t.Errorf("no sample keyed %s in %v", n, keys)
		}
	}
	unsorted := PromSample{Name: "m", Labels: map[string]string{"z": "1", "a": `q"x`}}
	if got, want := unsorted.Series(), `m{a="q\"x",z="1"}`; got != want {
		t.Errorf("Series() = %s, want %s", got, want)
	}
}

// A nil SyncRegistry is a no-op for every method — callers never need
// to guard.
func TestSyncRegistryNil(t *testing.T) {
	var sr *SyncRegistry
	sr.Inc("x", DirNone)
	if v := sr.Add("x", DirNone, 2); v != 0 {
		t.Fatalf("nil Add = %d", v)
	}
	sr.Set("x", DirNone, 1)
	sr.Observe("x", DirNone, 1)
	var buf bytes.Buffer
	if err := sr.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WritePrometheus wrote %q, err %v", buf.String(), err)
	}
}

// WriteTraceEvents emits loadable trace_event JSON with the process
// and thread metadata first.
func TestWriteTraceEvents(t *testing.T) {
	events := []TraceEvent{
		{Name: "cell-0", Cat: "sweep", Ph: "X", PID: 1, TID: 2, TS: 0, Dur: 50},
		{Name: "cell-1", Cat: "sweep", Ph: "i", PID: 1, TID: 1, TS: 60},
	}
	var buf bytes.Buffer
	err := WriteTraceEvents(&buf, "proc", map[int]string{1: "served", 2: "lane-0"}, events)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"process_name"`, `"thread_name"`, `"served"`, `"lane-0"`, `"cell-0"`, `"ph":"X"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %s:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Fatalf("not a JSON object: %s", out)
	}
}

func TestHistQuantileMonotonic(t *testing.T) {
	h := NewRegistry().Histogram("v", DirLower)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	last := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantile %v = %v < previous %v", q, v, last)
		}
		last = v
	}
}
