package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wlcache/internal/obs"
	"wlcache/internal/runner"
)

// syncBuf is a goroutine-safe log sink for the structured logger.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// rawSubmit POSTs a sweep spec with an explicit X-Request-Id header
// and returns the raw response, so tests can inspect headers the
// Client abstracts away.
func rawSubmit(t *testing.T, base string, spec Spec, rid string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// An inbound X-Request-Id is echoed on the response header, carried on
// every NDJSON event of the stream, and recorded in the structured
// logs.
func TestRequestIDEndToEnd(t *testing.T) {
	const rid = "e2e-req.42:a"
	logs := &syncBuf{}
	cfg := Config{Logger: slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))}
	_, cl := newTestServer(t, cfg)

	resp := rawSubmit(t, cl.Base, tinySpec(), rid)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Fatalf("response X-Request-Id = %q, want %q", got, rid)
	}

	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	events := 0
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		events++
		if ev.Request != rid {
			t.Fatalf("%s event carries request %q, want %q", ev.Type, ev.Request, rid)
		}
	}
	if events < 5 { // accepted + 3 cells + done
		t.Fatalf("streamed %d events, want >= 5", events)
	}

	out := logs.String()
	for _, want := range []string{"sweep accepted", "sweep done", "cell done", "http request"} {
		if !strings.Contains(out, want) {
			t.Fatalf("logs lack %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "request="+rid) {
		t.Fatalf("logs never mention request=%s:\n%s", rid, out)
	}
}

// A malformed inbound X-Request-Id is replaced with a fresh
// server-assigned one instead of being echoed verbatim.
func TestRequestIDInvalidReplaced(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	resp := rawSubmit(t, cl.Base, tinySpec(), "bad id\twith junk!")
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	got := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("assigned request ID %q, want 16 hex chars", got)
	}
}

// promScrape fetches /metrics and validates it as Prometheus text.
func promScrape(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	return samples
}

// After a sweep, /metrics agrees with the sweep's own done-event
// accounting: the service counters, the per-outcome cell latency
// histogram and the journal fsync histogram all count the same cells.
func TestMetricsPrometheusScrape(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := cl.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := st.Drain()
	st.Close()
	if err != nil || done == nil {
		t.Fatalf("drain: done=%v err=%v", done, err)
	}

	m, _ := metricsOf(promScrape(t, cl.Base), nil)
	computed := float64(done.Metrics.Computed)
	checks := []struct {
		series string
		want   float64
	}{
		{mSweepsAccepted, 1},
		{mSweepsCompleted, 1},
		{mCells + outcomeLabels(runner.SourceComputed), computed},
		{mCells + outcomeLabels(runner.SourceJournal), float64(done.Metrics.FromJournal)},
		{mCellLatency + "_count" + outcomeLabels(runner.SourceComputed), computed},
		{mJournalAppends, computed},
		{mJournalFsync + "_count", computed},
		{mStoreSize, computed},
		{mStoreLoaded, 0},
		{mSweepsActive, 0},
		{mDraining, 0},
	}
	for _, c := range checks {
		if got, ok := m[c.series]; !ok || got != c.want {
			t.Errorf("%s = %v (found=%v), want %v", c.series, got, ok, c.want)
		}
	}
	if computed != 3 {
		t.Errorf("done event counts %v computed cells, want 3", computed)
	}
	if _, ok := m[mHTTPRequests+`{code="200",route="/v1/sweeps"}`]; !ok {
		t.Error("no wlserve_http_requests_total series for /v1/sweeps")
	}
}

// A fresh server's first scrape already carries every counter and
// gauge family, at zero: dashboards and the chaos gate never meet a
// missing series just because nothing has happened yet.
func TestMetricsFamiliesAtBoot(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	series := []string{
		mSweepsAccepted, mSweepsRejected, mSweepsUnavailable, mSweepsCompleted,
		mCellPanics, mJournalAppends, mJournalDropped, mJournalTornBytes,
		mJournalsQuarantined,
		mSweepsActive, mSweepsQueued, mStoreLoaded, mStoreSize, mDraining,
	}
	for _, src := range cellSources {
		series = append(series, mCells+outcomeLabels(src))
	}
	for _, name := range series {
		if v, ok := m[name]; !ok || v != 0 {
			t.Errorf("%s = %v (found=%v), want 0 at boot", name, v, ok)
		}
	}
}

// Concurrent /metrics scrapes while sweeps are actively running stay
// well-formed and race-clean.
func TestConcurrentScrapesDuringSweeps(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sweeps := make(chan error, 1)
	go func() {
		// Three back-to-back submissions: the first computes, the rest
		// hit the journal/dedup paths — all of them write metrics while
		// the scrapers below read.
		for i := 0; i < 3; i++ {
			st, err := cl.Submit(ctx, tinySpec())
			if err != nil {
				sweeps <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			_, done, err := st.Drain()
			st.Close()
			if err != nil || done == nil {
				sweeps <- fmt.Errorf("sweep %d: done=%v err=%v", i, done, err)
				return
			}
		}
		sweeps <- nil
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := cl.Metrics(ctx); err != nil {
					errc <- fmt.Errorf("mid-sweep /metrics: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := <-sweeps; err != nil {
		t.Fatal(err)
	}
}

// A sweep has no document of its own: its stream and /metrics carry
// its progress, and the paths below /v1/sweeps/ are not routes. Nor
// does the service mount profiling endpoints under /debug/pprof/.
func TestSweepSubpathsNotFound(t *testing.T) {
	s, cl := newTestServer(t, Config{})
	st, err := cl.Submit(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := st.Drain()
	st.Close()
	if err != nil || done == nil {
		t.Fatalf("sweep: done=%v err=%v", done, err)
	}
	for _, path := range []string{"/v1/sweeps/" + done.Sweep, "/v1/sweeps/" + done.Sweep + "/trace", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(cl.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, resp.Status)
		}
	}
	if got := metric(t, s, mHTTPRequests+`{code="404",route="other"}`); got != 4 {
		t.Errorf("404s counted under route other = %v, want 4", got)
	}
}
