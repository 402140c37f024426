package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"wlcache/internal/obs"
	"wlcache/internal/runner"
)

// Request-scoped tracing: every request gets an ID (honoring an
// inbound X-Request-Id when it is well-formed), echoed in the
// response header, carried on every NDJSON event of a sweep stream,
// and propagated via context through the runner workers — so one cell
// can be followed from HTTP ingress through the single-flight store
// to the worker that computed it, across logs and events.

type ctxKey int

const requestIDKey ctxKey = 1

// withRequestID stores the request ID on a context.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request ID carried by a context ("" when
// none). The sweep context handed to runner cells carries it, so even
// code running deep in a worker can tag its output.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// requestIDFor picks the request's ID: a well-formed inbound
// X-Request-Id wins, otherwise a fresh random one.
func requestIDFor(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return newRequestID()
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-0"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts IDs that are safe to echo into headers,
// JSON and logs verbatim.
func validRequestID(s string) bool {
	if len(s) == 0 || len(s) > 100 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// The service metrics, all held in Server.reg and rendered by /metrics
// alone. Names embed their labels in exposition spelling, sorted by
// label name, so a parsed scrape (Metrics) is keyed by these same
// strings. Latencies are in microseconds: the obs histograms are
// log2-bucketed over natural integer units.
const (
	mHTTPRequests = "wlserve_http_requests_total" // counter {code,route}
	mHTTPLatency  = "wlserve_http_request_us"     // histogram {code,route}
	mCellLatency  = "wlserve_cell_us"             // histogram {outcome}
	mCellWait     = "wlserve_cell_wait_us"        // histogram: worker-queue wait
	mQueueWait    = "wlserve_queue_wait_us"       // histogram: admission wait
	mJournalFsync = "wlserve_journal_fsync_us"    // histogram: append durability tax

	mSweepsAccepted    = `wlserve_sweeps_total{state="accepted"}`
	mSweepsRejected    = `wlserve_sweeps_total{state="rejected"}`
	mSweepsUnavailable = `wlserve_sweeps_total{state="unavailable"}`
	mSweepsCompleted   = `wlserve_sweeps_total{state="completed"}`
	mCells             = "wlserve_cells_total" // counter {outcome}
	mCellPanics        = "wlserve_cell_panics_total"

	mJournalAppends      = "wlserve_journal_appends_total"
	mJournalDropped      = "wlserve_journal_dropped_records_total"
	mJournalTornBytes    = "wlserve_journal_torn_tail_bytes_total"
	mJournalsQuarantined = "wlserve_journals_quarantined_total"

	mSweepsActive = "wlserve_sweeps_active" // gauge: run slots held
	mSweepsQueued = "wlserve_sweeps_queued" // gauge: admission queue
	mStoreLoaded  = "wlserve_store_loaded"  // gauge: results reloaded at startup
	mStoreSize    = "wlserve_store_size"    // gauge: results in the shared store
	mDraining     = "wlserve_draining"      // gauge: 1 once shutdown began
)

// cellSources is every runner cell source; each is one outcome of
// wlserve_cells_total and wlserve_cell_us.
var cellSources = []runner.CellSource{
	runner.SourceComputed, runner.SourceJournal, runner.SourceShared,
	runner.SourceDedup, runner.SourceFailed, runner.SourceSkipped,
}

// registerMetrics creates every service counter at zero and samples
// the gauges; with the store gauge loadStore sets, the first scrape of
// a fresh server already carries every family. Which way each one
// regresses is documented in DESIGN.md §14.2: the Prometheus text
// format has no place for it.
func (s *Server) registerMetrics() {
	for _, name := range []string{
		mSweepsAccepted, mSweepsRejected, mSweepsUnavailable, mSweepsCompleted,
		mCellPanics, mJournalAppends, mJournalDropped, mJournalTornBytes,
		mJournalsQuarantined,
	} {
		s.count(name, 0)
	}
	for _, src := range cellSources {
		s.count(seriesBySource[src].count, 0)
	}
	s.sampleGauges()
}

// count adds n to a service counter and returns its new tally.
func (s *Server) count(name string, n uint64) uint64 {
	return s.reg.Add(name, obs.DirNone, n)
}

// sampleGauges copies the live state whose truth lives elsewhere — run
// slots, the admission queue, the shared store, the drain flag — into
// the registry's gauges. /metrics calls it before every render.
func (s *Server) sampleGauges() {
	s.mu.Lock()
	queued, draining := s.waiting, s.drained
	s.mu.Unlock()
	s.reg.Set(mSweepsActive, obs.DirNone, float64(len(s.sem)))
	s.reg.Set(mSweepsQueued, obs.DirNone, float64(queued))
	s.reg.Set(mStoreSize, obs.DirNone, float64(s.store.Len()))
	flag := 0.0
	if draining {
		flag = 1
	}
	s.reg.Set(mDraining, obs.DirNone, flag)
}

// outcomeLabel maps a runner cell source onto the /metrics outcome
// vocabulary (aligned with the SweepMetrics JSON field names).
func outcomeLabel(src runner.CellSource) string {
	switch src {
	case runner.SourceJournal:
		return "from_journal"
	case runner.SourceShared:
		return "from_shared"
	case runner.SourceDedup:
		return "deduped"
	case runner.SourceComputed:
		return "computed"
	case runner.SourceFailed:
		return "failed"
	case runner.SourceSkipped:
		return "skipped"
	}
	return string(src)
}

// outcomeLabels is the label block of a per-outcome series.
func outcomeLabels(src runner.CellSource) string {
	return fmt.Sprintf("{outcome=%q}", outcomeLabel(src))
}

// cellSeries names one cell outcome's two series: its count in
// wlserve_cells_total and its latency in wlserve_cell_us.
type cellSeries struct{ count, latency string }

// seriesBySource names every source's series once, so counting a cell
// builds no string.
var seriesBySource = func() map[runner.CellSource]cellSeries {
	m := make(map[runner.CellSource]cellSeries, len(cellSources))
	for _, src := range cellSources {
		lbl := outcomeLabels(src)
		m[src] = cellSeries{count: mCells + lbl, latency: mCellLatency + lbl}
	}
	return m
}()

// noteCell counts one finished cell by outcome, as it lands, and folds
// it into the latency histograms.
func (s *Server) noteCell(d runner.CellDone) {
	series := seriesBySource[d.Source]
	s.count(series.count, 1)
	s.reg.Observe(series.latency, obs.DirLower, float64(d.Dur.Microseconds()))
	if d.Source != runner.SourceJournal && d.Source != runner.SourceSkipped {
		// Only cells that reached the pool have a queue wait.
		s.reg.Observe(mCellWait, obs.DirLower, float64(d.Wait.Microseconds()))
	}
}

// statusWriter captures the response status for instrumentation while
// passing Flush through — the NDJSON stream depends on it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// routeLabel collapses a request path onto its route template so the
// per-route metric families stay bounded no matter what clients send.
func routeLabel(path string) string {
	switch path {
	case "/v1/sweeps", "/healthz", "/readyz", "/metrics":
		return path
	}
	return "other"
}

// instrument wraps the mux: assign/echo the request ID, capture the
// status, and record per-route latency plus a structured log line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := requestIDFor(r)
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(withRequestID(r.Context(), rid))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		route := routeLabel(r.URL.Path)
		dur := time.Since(start)
		lbl := fmt.Sprintf("{code=\"%d\",route=%q}", code, route)
		s.reg.Inc(mHTTPRequests+lbl, obs.DirNone)
		s.reg.Observe(mHTTPLatency+lbl, obs.DirLower, float64(dur.Microseconds()))
		logf := s.slog.Info
		if route != "/v1/sweeps" {
			// Probes and scrapes are high-frequency background noise.
			logf = s.slog.Debug
		}
		logf("http request",
			"request", rid, "method", r.Method, "route", route,
			"code", code, "dur_ms", float64(dur.Microseconds())/1000)
	})
}

// exposition samples the gauges and renders the whole registry in the
// Prometheus text format: the one rendering of the service's metrics.
func (s *Server) exposition() []byte {
	s.sampleGauges()
	var buf bytes.Buffer
	_ = s.reg.WritePrometheus(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// handleMetrics is GET /metrics: every service counter, gauge and
// latency histogram. The chaos gate and the benchmark's serve-resume
// workload read this endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(s.exposition()); err != nil {
		s.slog.Warn("metrics response failed", "err", err)
	}
}

// Metrics is what GET /metrics serves, parsed back through the same
// validating parser clients use; in-process callers (tests) read the
// service's metrics exactly as a scraper would.
func (s *Server) Metrics() (Metrics, error) {
	return metricsOf(obs.ParsePrometheus(bytes.NewReader(s.exposition())))
}
