package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wlcache/internal/obs"
	"wlcache/internal/runner"
)

// Request-scoped tracing: every request gets an ID (honoring an
// inbound X-Request-Id when it is well-formed), echoed in the
// response header, carried on every NDJSON event of a sweep stream,
// and propagated via context through the runner workers — so one cell
// can be followed from HTTP ingress through the single-flight store
// to the worker that computed it, across logs, events and traces.

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
// JSON, logs and trace args verbatim.
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
	if strings.HasPrefix(path, "/v1/sweeps/") {
		if strings.HasSuffix(path, "/trace") {
			return "/v1/sweeps/{id}/trace"
		}
		return "/v1/sweeps/{id}"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
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

// progress is the server's record of one sweep's execution, fed by
// the event loop and read by GET /v1/sweeps/{id} and its /trace
// export. All fields are guarded by Server.progMu.
type progress struct {
	sweep    string
	request  string
	cells    int
	workers  int
	state    string // "running" or "done"
	started  time.Time
	finished time.Time
	done     int
	outcomes map[string]int
	// ran counts the cells behind ewmaUS (computed, shared-store waits,
	// failures). Journal serves and skips are excluded: until a cell has
	// actually run, there is no basis for an ETA and the snapshot says
	// so explicitly instead of reporting a degenerate value.
	ran int
	// ewmaUS smooths the per-cell wall time of cells that actually ran
	// — the basis of the ETA.
	ewmaUS float64
	spans  []obs.TraceEvent
	err    string
}

// ewmaAlpha weighs the newest cell at 20%: smooth enough to ride out
// one slow cell, fresh enough to track a phase change within ~10
// cells.
const ewmaAlpha = 0.2

// progressRetain bounds how many completed sweeps stay queryable;
// older ones are evicted oldest-first.
const progressRetain = 64

// maxSpansPerSweep bounds one sweep's trace export.
const maxSpansPerSweep = 20000

// The trace lanes: journal serves and skips never reach the worker
// pool and render as instants on a dedicated lane; executed cells
// spread over per-worker lanes by index.
const (
	tidServed    = 1
	tidLaneBase  = 2
	laneServed   = "served"
	lanePrefix   = "lane-"
	traceProcess = "wlserve sweep"
)

// progressStart registers a sweep run. A resubmission of the same
// sweep ID replaces the previous record: progress reflects the latest
// run of that sweep.
func (s *Server) progressStart(sweep, request string, cells, workers int) *progress {
	p := &progress{
		sweep: sweep, request: request, cells: cells, workers: workers,
		state: "running", started: time.Now(), outcomes: make(map[string]int),
	}
	s.progMu.Lock()
	s.prog[sweep] = p
	s.progMu.Unlock()
	return p
}

// progressCell folds one finished cell into the sweep's progress and
// appends its trace span. elapsed is sweep-relative time at which the
// outcome landed.
func (s *Server) progressCell(p *progress, d runner.CellDone, elapsed time.Duration) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	p.done++
	p.outcomes[outcomeLabel(d.Source)]++
	ran := d.Source == runner.SourceComputed || d.Source == runner.SourceShared ||
		d.Source == runner.SourceFailed
	if ran {
		us := float64(d.Dur.Microseconds())
		p.ran++
		if p.ran == 1 {
			// First sample seeds the EWMA. The ran counter, not a zero
			// check, decides this: a first cell faster than 1µs would
			// otherwise leave ewmaUS at 0 and re-seed on every cell.
			p.ewmaUS = us
		} else {
			p.ewmaUS = ewmaAlpha*us + (1-ewmaAlpha)*p.ewmaUS
		}
	}
	if len(p.spans) >= maxSpansPerSweep {
		return
	}
	durUS := float64(d.Dur.Microseconds())
	tsUS := float64(elapsed.Microseconds()) - durUS
	if tsUS < 0 {
		tsUS = 0
	}
	ev := obs.TraceEvent{Name: d.ID, Cat: "sweep", PID: 1, TS: tsUS}
	args := map[string]any{
		"source":  string(d.Source),
		"wait_us": d.Wait.Microseconds(),
	}
	if d.Err != nil {
		args["error"] = d.Err.Error()
	}
	ev.Args = args
	if d.Source == runner.SourceJournal || d.Source == runner.SourceSkipped {
		ev.Ph = "i"
		ev.TID = tidServed
	} else {
		ev.Ph = "X"
		ev.Dur = durUS
		if p.workers > 0 {
			ev.TID = tidLaneBase + d.Index%p.workers
		} else {
			ev.TID = tidLaneBase
		}
	}
	p.spans = append(p.spans, ev)
}

// progressEnd marks a sweep done and evicts the oldest completed
// record past the retention bound. Eviction checks identity: a
// resubmission may have replaced the map entry with a newer run.
func (s *Server) progressEnd(p *progress, runErr error) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	p.state = "done"
	p.finished = time.Now()
	if runErr != nil {
		p.err = runErr.Error()
	}
	s.progDone = append(s.progDone, p)
	if len(s.progDone) > progressRetain {
		old := s.progDone[0]
		s.progDone = s.progDone[1:]
		if s.prog[old.sweep] == old {
			delete(s.prog, old.sweep)
		}
	}
}

// ProgressSnapshot is the GET /v1/sweeps/{id} document.
type ProgressSnapshot struct {
	Sweep   string `json:"sweep"`
	Request string `json:"request,omitempty"`
	// State is "running" or "done".
	State string `json:"state"`
	Cells int    `json:"cells"`
	Done  int    `json:"done"`
	// Outcomes counts finished cells by source (computed, from_journal,
	// from_shared, deduped, failed, skipped).
	Outcomes  map[string]int `json:"outcomes"`
	ElapsedMS int64          `json:"elapsed_ms"`
	// CellEWMAUS is the smoothed wall time of cells that actually ran.
	CellEWMAUS float64 `json:"cell_ewma_us"`
	// ETAMS estimates the remaining wall time as remaining × EWMA ÷
	// workers — an upper bound, since journal/store serves are far
	// cheaper than the EWMA. Zero when done or the ETA is unknown.
	ETAMS int64 `json:"eta_ms,omitempty"`
	// ETAUnknown is set while the sweep is running with cells remaining
	// but no cell has run yet (everything so far was served from the
	// journal or skipped): there is no per-cell sample to extrapolate
	// from, and "unknown" is the honest answer — not 0ms, not an ETA
	// seeded by a journal serve's near-zero duration.
	ETAUnknown bool   `json:"eta_unknown,omitempty"`
	Error      string `json:"error,omitempty"`
}

// progressSnapshot builds the progress document for one sweep ID.
func (s *Server) progressSnapshot(id string) (ProgressSnapshot, bool) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	p, ok := s.prog[id]
	if !ok {
		return ProgressSnapshot{}, false
	}
	snap := ProgressSnapshot{
		Sweep: p.sweep, Request: p.request, State: p.state,
		Cells: p.cells, Done: p.done, CellEWMAUS: p.ewmaUS, Error: p.err,
		Outcomes: make(map[string]int, len(p.outcomes)),
	}
	for k, v := range p.outcomes {
		snap.Outcomes[k] = v
	}
	end := p.finished
	if p.state == "running" {
		end = time.Now()
		if remaining := p.cells - p.done; remaining > 0 {
			if p.ran == 0 {
				// Zero-cells-run window: nothing has executed yet, so any
				// ETA would be fabricated.
				snap.ETAUnknown = true
			} else {
				workers := p.workers
				if workers < 1 {
					workers = 1
				}
				snap.ETAMS = int64(float64(remaining) * p.ewmaUS / float64(workers) / 1000)
			}
		}
	}
	snap.ElapsedMS = end.Sub(p.started).Milliseconds()
	return snap, true
}

// handleSweepGet is GET /v1/sweeps/{id}: live progress for a sweep the
// server is running or recently finished.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.progressSnapshot(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		s.slog.Warn("progress response failed", "sweep", r.PathValue("id"), "err", err)
	}
}

// handleSweepTrace is GET /v1/sweeps/{id}/trace: the sweep's per-cell
// spans as a Chrome trace_event document — the same format the
// simulator's wlobs export uses, so both load into the same tooling.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.progMu.Lock()
	p, ok := s.prog[id]
	var spans []obs.TraceEvent
	var workers int
	var request string
	if ok {
		spans = append(spans, p.spans...)
		workers = p.workers
		request = p.request
	}
	s.progMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	lanes := map[int]string{tidServed: laneServed}
	for i := 0; i < workers; i++ {
		lanes[tidLaneBase+i] = fmt.Sprintf("%s%d", lanePrefix, i)
	}
	w.Header().Set("Content-Type", "application/json")
	name := fmt.Sprintf("%s %s (request %s)", traceProcess, id, request)
	if err := obs.WriteTraceEvents(w, name, lanes, spans); err != nil {
		s.slog.Warn("trace response failed", "sweep", id, "err", err)
	}
}
