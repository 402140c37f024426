// Package serve is the crash-tolerant HTTP sweep service: clients POST
// a sweep spec (designs × workloads × traces × parameter grid), cells
// are sharded across a bounded worker pool, and per-cell results
// stream back as NDJSON as they land.
//
// Robustness is the contract, not a feature flag. Every accepted sweep
// is backed by a wlrun/v1 journal keyed by the spec's content hash, so
// a SIGKILL'd server restarts and resumes every sweep — resubmitting
// an identical spec serves every journaled cell with zero
// recomputation. A shared content-addressed single-flight store dedupes
// overlapping sweeps from concurrent clients to near-zero work: a cell
// is computed once per server lifetime no matter how many sweeps
// request it. Overload and crash are first-class states: admission
// control sheds load with 429 + Retry-After when the queue is full,
// each cell runs once (a deterministic simulator error is streamed,
// never retried), worker panics are isolated to their cell, and
// graceful shutdown drains or journals every in-flight cell within a
// configured deadline. /healthz and /readyz expose liveness and drain
// state; /metrics is the one metrics surface — every counter the chaos
// gate audits (zero recompute, exactly-once compute) plus the latency
// histograms, in Prometheus text.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wlcache/internal/obs"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// Config tunes a Server. Zero values mean the documented defaults.
type Config struct {
	// DataDir holds the per-sweep wlrun/v1 journals; each is scanned
	// once, at startup, to rebuild the shared result store, and held
	// open until Shutdown. Required.
	DataDir string
	// Engine is the engine version mixed into every content address
	// (default sim.EngineVersion).
	Engine string
	// Workers bounds each sweep's worker pool (0 = NumCPU).
	Workers int
	// MaxConcurrent bounds sweeps running at once (0 = 2).
	MaxConcurrent int
	// MaxQueue bounds sweeps waiting for a run slot; a submission
	// beyond it is shed with 429 + Retry-After (0 = 8).
	MaxQueue int
	// MaxCells bounds a single spec's cell count (0 = 10000).
	MaxCells int
	// RetryAfter is the hint returned with shed load (0 = 5s).
	RetryAfter time.Duration
	// AfterJournal, when set, runs after the n-th journal append
	// server-wide becomes durable, under that journal's append lock —
	// the chaos harness SIGKILLs the process here.
	AfterJournal func(total int)
	// Logger receives structured logs (nil = discard): store reload
	// and sweep lifecycle at Info, quarantines and failures at Warn,
	// per-cell and probe traffic at Debug, keyed by request ID where
	// there is one.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are opt-in, never ambient.
	EnablePprof bool
}

func (c Config) normalize() Config {
	if c.Engine == "" {
		c.Engine = sim.EngineVersion
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 10000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the sweep service.
type Server struct {
	cfg   Config
	store *runner.Flight
	mux   *http.ServeMux
	h     http.Handler // mux wrapped with request instrumentation
	hs    *http.Server
	slog  *slog.Logger

	// reg holds every service metric — counters, gauges and latency
	// histograms — and is the only thing /metrics renders.
	reg *obs.SyncRegistry

	// journalMu guards journals: every open sweep journal by sweep ID,
	// opened by the startup scan or by the first sweep of its spec and
	// closed by Shutdown.
	journalMu sync.Mutex
	journals  map[string]*runner.Journal

	sem     chan struct{} // run slots
	drainCh chan struct{}
	mu      sync.Mutex // guards waiting, draining
	waiting int
	drained bool
	active  sync.WaitGroup

	// hardCtx cancels in-flight sweeps when the drain deadline passes.
	hardCtx    context.Context
	hardCancel context.CancelCauseFunc

	// beforeRun, when set, runs after a sweep wins admission and
	// before its cells execute. Tests use it to hold run slots at
	// deterministic points.
	beforeRun func(sweepID string)
}

// New builds a Server and rebuilds the shared result store from every
// journal in DataDir: after a crash, every durably journaled cell is
// servable again before the first request lands. Each journal is read
// once, here, and stays open for every later sweep of its spec. A
// corrupt journal is quarantined (renamed aside) and logged, never
// fatal — the sweep that owns it recomputes. A journal of another
// engine version is left untouched: no sweep of this engine owns it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalize()
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	hardCtx, hardCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      runner.NewFlight(),
		mux:        http.NewServeMux(),
		slog:       cfg.Logger,
		reg:        obs.NewSyncRegistry(),
		journals:   make(map[string]*runner.Journal),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		drainCh:    make(chan struct{}),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	s.registerMetrics()
	if err := s.loadStore(); err != nil {
		return nil, err
	}
	s.mux.HandleFunc("/v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	s.h = s.instrument(s.mux)
	return s, nil
}

// loadStore opens every journal in DataDir, repairing a torn tail, and
// seeds the shared store from it.
func (s *Server) loadStore() error {
	paths, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "*.jsonl"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		j, stats, err := runner.OpenJournal(p, s.cfg.Engine, s.journalHooks())
		if errors.Is(err, runner.ErrForeignEngine) {
			s.noteLoadStats(stats)
			continue
		}
		if err != nil {
			// Interior corruption: quarantine so the owning sweep
			// restarts clean, and keep serving everything else.
			s.quarantine(p, err)
			continue
		}
		for addr, res := range j.Results() {
			s.store.Seed(addr, res)
		}
		s.noteLoadStats(stats)
		s.journals[strings.TrimSuffix(filepath.Base(p), ".jsonl")] = j
	}
	loaded := s.store.Len()
	s.reg.Set(mStoreLoaded, obs.DirNone, float64(loaded))
	s.slog.Info("store loaded", "results", loaded, "journals", len(paths))
	return nil
}

// journalHooks binds the server's append and fsync accounting to a
// journal as it is opened.
func (s *Server) journalHooks() runner.JournalHooks {
	return runner.JournalHooks{
		AfterAppend: func(int) {
			n := s.count(mJournalAppends, 1)
			if s.cfg.AfterJournal != nil {
				s.cfg.AfterJournal(int(n))
			}
		},
		ObserveFsync: func(d time.Duration) {
			s.reg.Observe(mJournalFsync, obs.DirLower, float64(d.Microseconds()))
		},
	}
}

// journal returns the open journal of a sweep, creating it on the
// first sweep of a spec the startup scan did not find. It opens under
// journalMu, so concurrent first sweeps of one spec share one handle.
func (s *Server) journal(sweepID string) (*runner.Journal, error) {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if j, ok := s.journals[sweepID]; ok {
		return j, nil
	}
	j, _, err := runner.OpenJournal(filepath.Join(s.cfg.DataDir, sweepID+".jsonl"), s.cfg.Engine, s.journalHooks())
	if err != nil {
		return nil, err
	}
	s.journals[sweepID] = j
	return j, nil
}

// closeJournals releases every open journal.
func (s *Server) closeJournals() {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	for id, j := range s.journals {
		if err := j.Close(); err != nil {
			s.slog.Warn("journal close failed", "sweep", id, "err", err)
		}
		delete(s.journals, id)
	}
}

// quarantine renames a corrupt journal aside so its sweep restarts
// from scratch instead of failing forever.
func (s *Server) quarantine(path string, cause error) {
	s.count(mJournalsQuarantined, 1)
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		s.slog.Warn("quarantine failed", "journal", path, "err", err, "corruption", cause)
		return
	}
	s.slog.Warn("quarantined corrupt journal", "journal", path, "to", dst, "corruption", cause)
}

// noteLoadStats folds one journal reload's loss accounting into the
// server metrics, logging any non-zero loss (a torn tail is expected
// crash damage, but never silent).
func (s *Server) noteLoadStats(stats runner.LoadStats) {
	s.count(mJournalDropped, uint64(stats.Dropped))
	s.count(mJournalTornBytes, uint64(stats.TornTailBytes))
	if stats.Dropped > 0 || stats.TornTailBytes > 0 {
		s.slog.Info("journal reload lost records", "served", stats.Records,
			"dropped", stats.Dropped, "torn_tail_bytes", stats.TornTailBytes)
	}
}

// Handler returns the service's HTTP handler (httptest-friendly),
// request instrumentation included.
func (s *Server) Handler() http.Handler { return s.h }

// Serve accepts connections until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.hs = &http.Server{Handler: s.h}
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: new submissions are refused (503 /
// readyz), queued sweeps are released with 503, and running sweeps
// finish. If ctx expires first, in-flight sweep contexts are
// cancelled: the cells already running complete and journal (a
// simulation is not preemptible), every unstarted cell becomes a
// deterministic skip, and the streams still end with a well-formed
// done event. Once no sweep runs, every journal is closed. Returns
// ctx.Err() when the deadline forced the degradation, nil on a clean
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.drained {
		s.drained = true
		close(s.drainCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.hardCancel(fmt.Errorf("serve: shutdown drain deadline: %w", ctx.Err()))
		<-done
	}
	s.closeJournals()
	if s.hs != nil {
		// Handlers are done; this just closes the listener and idles.
		_ = s.hs.Shutdown(context.Background())
	}
	return forced
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

// admitStatus is the admission verdict for one submission.
type admitStatus int

const (
	admitted         admitStatus = iota
	admitShed                    // queue full: 429 + Retry-After
	admitUnavailable             // draining: 503
	admitGone                    // client went away while queued
)

// admit implements admission control: a free run slot admits
// immediately; otherwise the submission queues (bounded by MaxQueue)
// until a slot frees, the client gives up, or the server drains. A
// full queue sheds deterministically with 429 + Retry-After.
func (s *Server) admit(ctx context.Context) (func(), admitStatus) {
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return nil, admitUnavailable
	}
	select {
	case s.sem <- struct{}{}:
		s.active.Add(1)
		s.mu.Unlock()
		return s.releaseSlot, admitted
	default:
	}
	if s.waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, admitShed
	}
	s.waiting++
	s.mu.Unlock()
	queued := time.Now()
	defer func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
		s.reg.Observe(mQueueWait, obs.DirLower, float64(time.Since(queued).Microseconds()))
	}()
	select {
	case s.sem <- struct{}{}:
		if !s.tryActivate() {
			s.releaseSlot()
			return nil, admitUnavailable
		}
		return s.releaseSlot, admitted
	case <-ctx.Done():
		return nil, admitGone
	case <-s.drainCh:
		return nil, admitUnavailable
	}
}

// tryActivate registers one admitted sweep on the drain WaitGroup.
// The Add must happen under the same lock that checks drained: a bare
// Add in the handler could race Shutdown's Wait at counter zero, and
// Shutdown could return while the sweep was still starting.
func (s *Server) tryActivate() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return false
	}
	s.active.Add(1)
	return true
}

func (s *Server) releaseSlot() { <-s.sem }

// httpError writes a small JSON error document.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSweeps is POST /v1/sweeps: validate, admit, then execute the
// sweep through the crash-resumable runner, streaming NDJSON events.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a sweep spec")
		return
	}
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	spec = spec.normalize()
	if err := spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	if n := spec.NumCells(); n > s.cfg.MaxCells {
		httpError(w, http.StatusBadRequest, "sweep has %d cells, limit %d", n, s.cfg.MaxCells)
		return
	}
	sweepID := spec.ID(s.cfg.Engine)
	rid := RequestIDFrom(r.Context())

	release, verdict := s.admit(r.Context())
	switch verdict {
	case admitShed:
		s.count(mSweepsRejected, 1)
		s.slog.Warn("sweep shed", "request", rid, "sweep", sweepID)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, "sweep queue full, retry after %s", s.cfg.RetryAfter)
		return
	case admitUnavailable:
		s.count(mSweepsUnavailable, 1)
		s.slog.Warn("sweep refused, draining", "request", rid, "sweep", sweepID)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	case admitGone:
		return
	}
	// admit already counted this sweep on the drain WaitGroup.
	defer s.active.Done()
	defer release()
	if s.beforeRun != nil {
		s.beforeRun(sweepID)
	}
	s.count(mSweepsAccepted, 1)
	s.slog.Info("sweep accepted", "request", rid, "sweep", sweepID, "cells", spec.NumCells())
	s.runSweep(w, r, spec, sweepID)
	s.count(mSweepsCompleted, 1)
}

// runSweep executes one admitted sweep and streams its events.
func (s *Server) runSweep(w http.ResponseWriter, r *http.Request, spec Spec, sweepID string) {
	planned := spec.cells()
	cells := make([]runner.Cell, len(planned))
	for i, p := range planned {
		cells[i] = p.cell
	}
	rid := RequestIDFrom(r.Context())
	start := time.Now()

	// The sweep context: client disconnect and the shutdown drain
	// deadline both cancel it; the runner turns every cell not yet
	// started into a skip.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopWatch := context.AfterFunc(s.hardCtx, cancel)
	defer stopWatch()
	if s.hardCtx.Err() != nil {
		// AfterFunc fires asynchronously; a sweep starting after the
		// drain deadline must skip its cells deterministically, not race
		// the cancellation for its first few.
		cancel()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Id", sweepID)
	w.WriteHeader(http.StatusOK)
	// Events go out through appendEvent into one reused line buffer; an
	// event it cannot write goes through encoding/json. A client that
	// vanished mid-stream surfaces as write errors, which are dropped;
	// its disconnect also cancels ctx, so cells already running finish
	// and journal and the rest skip.
	enc := json.NewEncoder(w)
	var line []byte
	writeEvent := func(ev *Event) {
		var ok bool
		if line, ok = appendEvent(line[:0], ev); ok {
			_, _ = w.Write(line)
		} else {
			_ = enc.Encode(ev)
		}
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeEvent(&Event{Type: EventAccepted, Sweep: sweepID, Request: rid, Cells: len(cells)})
	flush()

	// The handoff is sized to the sweep, up to 256 cells: a burst of
	// journal-served cells never waits on the client, and a small sweep
	// does not pay for a 256-cell buffer.
	events := make(chan runner.CellDone, min(len(cells), 256))
	var rep runner.Report
	var runErr error
	go func() {
		defer close(events)
		var journal *runner.Journal
		if journal, runErr = s.journal(sweepID); runErr != nil {
			return
		}
		rep, runErr = runner.RunCells(ctx, runner.Config{
			Workers: s.cfg.Workers,
			Engine:  s.cfg.Engine,
			Journal: journal,
			Shared:  s.store,
			OnCell:  func(d runner.CellDone) { events <- d },
		}, cells)
	}()

	debug := s.slog.Enabled(ctx, slog.LevelDebug)
	// One event and one result, reused across cells.
	var ev Event
	var res sim.Result
	for d := range events {
		s.noteCell(d)
		if debug {
			s.slog.Debug("cell done",
				"request", rid, "sweep", sweepID, "cell", d.ID,
				"source", string(d.Source), "dur_us", d.Dur.Microseconds(),
				"wait_us", d.Wait.Microseconds())
		}
		ev = Event{
			Type:     EventCell,
			Request:  rid,
			Index:    d.Index,
			ID:       d.ID,
			Kind:     planned[d.Index].meta.Kind,
			Workload: planned[d.Index].meta.Workload,
			Trace:    planned[d.Index].meta.Trace,
			Source:   string(d.Source),
		}
		if d.Err != nil {
			// Surface the underlying simulator error exactly as the
			// golden pins it, not the runner's cell-attributed wrapper.
			var ce *runner.CellError
			if errors.As(d.Err, &ce) {
				ev.Error = ce.Err.Error()
			} else {
				ev.Error = d.Err.Error()
			}
		} else {
			res = d.Result
			ev.Result = &res
		}
		writeEvent(&ev)
		// Flush once the runner has nothing more queued: a lone cell
		// reaches the client at once, a burst in one flush.
		if len(events) == 0 {
			flush()
		}
	}

	s.count(mCellPanics, uint64(rep.Metrics.Panics))

	s.slog.Info("sweep done",
		"request", rid, "sweep", sweepID, "cells", len(cells),
		"computed", rep.Metrics.Computed, "from_journal", rep.Metrics.FromJournal,
		"from_shared", rep.Metrics.FromShared, "deduped", rep.Metrics.Deduped,
		"failed", rep.Metrics.Failed+rep.Metrics.OptionalFailed,
		"skipped", rep.Metrics.Skipped, "dur_ms", time.Since(start).Milliseconds())

	doneEv := Event{Type: EventDone, Sweep: sweepID, Request: rid, Metrics: sweepMetricsFrom(rep.Metrics)}
	if runErr != nil {
		// Cells are all tolerated, so this is journal/infrastructure
		// damage; the stream still ends well-formed.
		doneEv.Error = runErr.Error()
		s.slog.Warn("sweep failed", "request", rid, "sweep", sweepID, "err", runErr)
	}
	writeEvent(&doneEv)
	flush()
}
