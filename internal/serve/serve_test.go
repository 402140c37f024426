package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

const committedGolden = "../expt/testdata/golden_results.json"

// newTestServer builds a Server on a temp data dir plus an HTTP
// front-end and client for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, &Client{Base: hs.URL}
}

// tinySpec is the smallest interesting sweep: three designs, one
// workload, uninterrupted power. All three cells are feasible.
func tinySpec() Spec {
	return Spec{
		Designs:   []string{"nvsram", "nocache", "wl"},
		Workloads: []string{"adpcmencode"},
		Traces:    []string{"none"},
	}
}

// A submitted sweep streams an accepted event, one cell event per
// cell (with results), and a done event whose metrics add up — and the
// streamed results are bit-identical to the committed golden.
func TestSubmitStreamsGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	_, cl := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := Spec{Workloads: []string{"adpcmencode"}} // all designs, golden traces
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Accepted.Cells != spec.NumCells() {
		t.Fatalf("accepted %d cells, want %d", st.Accepted.Cells, spec.NumCells())
	}
	cells, done, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != spec.NumCells() || done == nil {
		t.Fatalf("streamed %d cells, done=%v; want %d and a done event", len(cells), done, spec.NumCells())
	}
	if done.Error != "" {
		t.Fatalf("done event carries error: %s", done.Error)
	}
	m := done.Metrics
	if m.FromJournal+m.FromShared+m.Computed+m.Failed != m.Cells || m.Skipped != 0 {
		t.Fatalf("done metrics do not add up: %+v", m)
	}

	got := make([]expt.GoldenCell, 0, len(cells))
	for _, ev := range cells {
		gc := expt.GoldenCell{Kind: ev.Kind, Workload: ev.Workload, Trace: ev.Trace, Err: ev.Error}
		if ev.Error == "" {
			if ev.Result == nil {
				t.Fatalf("cell %s/%s/%s has neither result nor error", ev.Kind, ev.Workload, ev.Trace)
			}
			gc.Fields = expt.FlattenResult(*ev.Result)
		}
		got = append(got, gc)
	}
	committed, err := expt.LoadGoldenFile(committedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if err := expt.CompareGoldenCells(got, committed, true); err != nil {
		t.Fatalf("streamed results diverged from the committed golden: %v", err)
	}
}

// A new server on the same data dir serves a completed sweep entirely
// from its journal: zero recomputation across a restart. A torn tail
// left by the crash is counted in /metrics once, at boot, not again
// when the resubmission reopens the journal.
func TestRestartServesFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	_, cl1 := newTestServer(t, Config{DataDir: dir})
	st, err := cl1.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := st.Drain(); err != nil || done == nil || done.Metrics.Computed != 3 {
		t.Fatalf("first run: done=%+v err=%v, want 3 computed", done, err)
	}
	st.Close()

	// A crash mid-append leaves a torn final record.
	const tail = `{"addr":"deadbeef","f`
	journal := filepath.Join(dir, tinySpec().ID(sim.EngineVersion)+".jsonl")
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, cl2 := newTestServer(t, Config{DataDir: dir})
	if got := metric(t, s2, mStoreLoaded); got != 3 {
		t.Fatalf("restarted store loaded %v results, want 3", got)
	}
	if got := metric(t, s2, mJournalTornBytes); got != float64(len(tail)) {
		t.Fatalf("torn tail bytes after boot = %v, want %d", got, len(tail))
	}
	st2, err := cl2.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cells, done, err := st2.Drain()
	if err != nil || done == nil {
		t.Fatalf("drain: done=%v err=%v", done, err)
	}
	if done.Metrics.Computed != 0 || done.Metrics.FromJournal != 3 {
		t.Fatalf("restart recomputed: %+v", done.Metrics)
	}
	if done.Metrics.JournalTornBytes != len(tail) {
		t.Fatalf("done event journal_torn_tail_bytes = %d, want %d", done.Metrics.JournalTornBytes, len(tail))
	}
	for _, ev := range cells {
		if ev.Source != string(runner.SourceJournal) {
			t.Fatalf("cell %s served from %q, want journal", ev.ID, ev.Source)
		}
	}
	if got := metric(t, s2, mJournalTornBytes); got != float64(len(tail)) {
		t.Fatalf("torn tail bytes after resubmission = %v, want %d (counted once, at boot)", got, len(tail))
	}
}

// Warm resubmissions on one server read no journal: the startup scan
// is the only one. Each done event reports that scan's loss, /metrics
// counts it once, and the sweeps serve every cell even with the file
// gone from disk after startup.
func TestWarmResubmissionsReuseJournalScan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	s1, cl1 := newTestServer(t, Config{DataDir: dir})
	st, err := cl1.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := st.Drain(); err != nil || done == nil || done.Metrics.Computed != 3 {
		t.Fatalf("first run: done=%+v err=%v, want 3 computed", done, err)
	}
	st.Close()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Reload loss for the startup scan to find: a duplicate of the last
	// record (one dropped record) and a torn tail.
	journal := filepath.Join(dir, tinySpec().ID(sim.EngineVersion)+".jsonl")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	const tail = `{"addr":"deadbeef","f`
	data = append(data, lines[len(lines)-2]+tail...)
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cl2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown(context.Background())
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		st, err := cl2.Submit(ctx, tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		cells, done, err := st.Drain()
		st.Close()
		if err != nil || done == nil || done.Error != "" {
			t.Fatalf("round %d: done=%+v err=%v", round, done, err)
		}
		m := done.Metrics
		if m.Computed != 0 || m.FromJournal != 3 {
			t.Fatalf("round %d recomputed: %+v", round, m)
		}
		if m.JournalRecords != 3 || m.JournalDropped != 1 || m.JournalTornBytes != len(tail) {
			t.Fatalf("round %d journal fields %+v, want the startup scan's 3 records, 1 dropped, %d torn bytes", round, m, len(tail))
		}
		for _, ev := range cells {
			if ev.Source != string(runner.SourceJournal) {
				t.Fatalf("round %d: cell %s served from %q, want journal", round, ev.ID, ev.Source)
			}
		}
		if got := metric(t, s2, mJournalDropped); got != 1 {
			t.Fatalf("round %d: dropped records = %v, want 1 (counted once, at startup)", round, got)
		}
		if got := metric(t, s2, mJournalTornBytes); got != float64(len(tail)) {
			t.Fatalf("round %d: torn tail bytes = %v, want %d (counted once, at startup)", round, got, len(tail))
		}
		if got := metric(t, s2, mJournalsQuarantined); got != 0 {
			t.Fatalf("round %d: quarantined %v journals", round, got)
		}
	}
}

// Two concurrent submissions of one new spec share its journal: every
// cell is computed once and journaled exactly once.
func TestConcurrentSubmissionsShareJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	dir := t.TempDir()
	s, cl := newTestServer(t, Config{DataDir: dir, MaxConcurrent: 2})
	// Hold both sweeps at admission so they run at once.
	entered := make(chan string, 2)
	gate := make(chan struct{})
	s.beforeRun = func(id string) {
		entered <- id
		<-gate
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dones := make(chan *Event, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := cl.Submit(ctx, tinySpec())
			if err != nil {
				t.Error(err)
				dones <- nil
				return
			}
			defer st.Close()
			_, done, err := st.Drain()
			if err != nil {
				t.Error(err)
			}
			dones <- done
		}()
	}
	<-entered
	<-entered
	close(gate)
	computed := 0
	for i := 0; i < 2; i++ {
		done := <-dones
		if done == nil || done.Error != "" {
			t.Fatalf("sweep failed: %+v", done)
		}
		computed += done.Metrics.Computed
	}
	if computed != 3 {
		t.Fatalf("computed %d cells across both sweeps, want each of the 3 once", computed)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, tinySpec().ID(sim.EngineVersion)+".jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1+3 {
		t.Fatalf("journal holds %d lines, want the header and 3 records", n)
	}
	j, stats, err := runner.OpenJournal(path, sim.EngineVersion, runner.JournalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if stats.Records != 3 || stats.Dropped != 0 {
		t.Fatalf("journal reload %+v, want 3 records and none dropped", stats)
	}
}

// Two overlapping sweeps submitted concurrently compute every
// duplicate cell exactly once, with the dedup visible in the metrics;
// resubmitting both on the same server computes nothing more.
func TestConcurrentOverlapComputesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep subsets")
	}
	s, cl := newTestServer(t, Config{MaxConcurrent: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	specA := tinySpec() // nvsram, nocache, wl
	specB := Spec{      // overlaps on nvsram and wl
		Designs:   []string{"nvsram", "wl"},
		Workloads: []string{"adpcmencode"},
		Traces:    []string{"none"},
	}
	type out struct {
		done *Event
		err  error
	}
	// round submits both specs concurrently and returns their done
	// events.
	round := func() []*Event {
		res := make(chan out, 2)
		for _, spec := range []Spec{specA, specB} {
			spec := spec
			go func() {
				st, err := cl.Submit(ctx, spec)
				if err != nil {
					res <- out{err: err}
					return
				}
				defer st.Close()
				_, done, err := st.Drain()
				res <- out{done: done, err: err}
			}()
		}
		var dones []*Event
		for i := 0; i < 2; i++ {
			o := <-res
			if o.err != nil || o.done == nil {
				t.Fatalf("sweep failed: done=%v err=%v", o.done, o.err)
			}
			dones = append(dones, o.done)
		}
		return dones
	}

	var computed, shared int
	for _, done := range round() {
		computed += done.Metrics.Computed
		shared += done.Metrics.FromShared
	}
	// 3 unique cells across both sweeps; the 2 overlapping cells are
	// each served to exactly one sweep from the shared store.
	if computed != 3 {
		t.Fatalf("computed %d cells across overlapping sweeps, want exactly 3", computed)
	}
	if shared != 2 {
		t.Fatalf("shared store served %d cells, want exactly 2", shared)
	}
	if got := metric(t, s, mCells+outcomeLabels(runner.SourceShared)); got != 2 {
		t.Fatalf("server metrics count %v shared cells, want 2", got)
	}

	// Resubmission without a restart: every cell is already in the
	// store, so neither sweep computes, and /metrics agrees.
	for _, done := range round() {
		if done.Metrics.Computed != 0 {
			t.Fatalf("resubmitted sweep %s computed %d cells, want 0", done.Sweep, done.Metrics.Computed)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`wlserve_sweeps_total{state="completed"}`]; got != 4 {
		t.Fatalf("/metrics reports %v completed sweeps, want 4", got)
	}
	if got := m[`wlserve_cells_total{outcome="computed"}`]; got != 3 {
		t.Fatalf("/metrics reports %v computed cells after resubmission, want still 3", got)
	}
}

// Admission control: with every run slot and queue position taken, a
// further submission sheds deterministically with 429 + Retry-After.
func TestOverloadSheds429(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 7 * time.Second})
	entered := make(chan string, 4)
	gate := make(chan struct{})
	s.beforeRun = func(id string) {
		entered <- id
		<-gate
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	submit := func(spec Spec) {
		defer wg.Done()
		st, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Errorf("held sweep failed: %v", err)
			return
		}
		st.Drain()
		st.Close()
	}
	// First sweep holds the only run slot (blocked in beforeRun).
	wg.Add(1)
	go submit(tinySpec())
	<-entered
	// Second sweep occupies the single queue position.
	wg.Add(1)
	go submit(Spec{Designs: []string{"nocache"}, Workloads: []string{"adpcmencode"}, Traces: []string{"none"}})
	waitFor(t, func() bool { return metric(t, s, mSweepsQueued) == 1 })

	// Third submission must shed, not hang.
	_, err := cl.Submit(ctx, tinySpec())
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded submit returned %v, want OverloadedError", err)
	}
	if oe.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After hint = %v, want 7s", oe.RetryAfter)
	}
	if got := metric(t, s, mSweepsRejected); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}

	close(gate)
	wg.Wait()
	if got := metric(t, s, mSweepsCompleted); got != 2 {
		t.Fatalf("completed = %v, want both held sweeps to finish", got)
	}
}

// Graceful shutdown drains: running sweeps finish and stream their
// done event, new submissions get 503, readyz flips to 503, and
// Shutdown returns nil once drained.
func TestGracefulShutdownDrains(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxConcurrent: 1})
	entered := make(chan string, 1)
	gate := make(chan struct{})
	s.beforeRun = func(id string) {
		entered <- id
		<-gate
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type out struct {
		done *Event
		err  error
	}
	res := make(chan out, 1)
	go func() {
		st, err := cl.Submit(ctx, tinySpec())
		if err != nil {
			res <- out{err: err}
			return
		}
		defer st.Close()
		_, done, err := st.Drain()
		res <- out{done: done, err: err}
	}()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return metric(t, s, mDraining) == 1 })

	if err := cl.Ready(ctx); err == nil {
		t.Fatal("readyz still 200 while draining")
	}
	if _, err := cl.Submit(ctx, tinySpec()); err == nil {
		t.Fatal("draining server accepted a new sweep")
	}
	if got := metric(t, s, mSweepsUnavailable); got != 1 {
		t.Fatalf("unavailable counter = %v, want 1", got)
	}

	close(gate)
	o := <-res
	if o.err != nil || o.done == nil || o.done.Error != "" {
		t.Fatalf("in-flight sweep did not finish cleanly: done=%+v err=%v", o.done, o.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("clean drain returned %v, want nil", err)
	}
}

// When the drain deadline passes, in-flight sweeps degrade instead of
// hanging: unstarted cells become deterministic skips and the stream
// still ends with a well-formed done event.
func TestShutdownDeadlineDegradesToSkips(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxConcurrent: 1})
	// Hold the sweep until the drain deadline forces the hard cancel;
	// its cells then all start after cancellation and must skip.
	s.beforeRun = func(string) { <-s.hardCtx.Done() }
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type out struct {
		cells []Event
		done  *Event
		err   error
	}
	res := make(chan out, 1)
	go func() {
		st, err := cl.Submit(ctx, tinySpec())
		if err != nil {
			res <- out{err: err}
			return
		}
		defer st.Close()
		cells, done, err := st.Drain()
		res <- out{cells: cells, done: done, err: err}
	}()
	waitFor(t, func() bool { return metric(t, s, mSweepsActive) == 1 })

	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	if err := s.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want deadline exceeded", err)
	}

	o := <-res
	if o.err != nil || o.done == nil {
		t.Fatalf("degraded sweep stream broken: done=%v err=%v", o.done, o.err)
	}
	if o.done.Metrics.Skipped != 3 || o.done.Metrics.Computed != 0 {
		t.Fatalf("degraded sweep metrics %+v, want all 3 cells skipped", o.done.Metrics)
	}
	for _, ev := range o.cells {
		if ev.Source != string(runner.SourceSkipped) || ev.Error == "" {
			t.Fatalf("cell %s: source %q error %q, want a typed skip", ev.ID, ev.Source, ev.Error)
		}
	}
}

// A client that disconnects cancels its sweep: cells that already ran
// are journaled, the rest skip, and a resubmission serves the journaled
// ones without computing them again.
func TestClientDisconnectCancelsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	s, cl := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := Spec{Workloads: []string{"adpcmencode"}}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	waitFor(t, func() bool { return metric(t, s, mSweepsCompleted) == 1 })
	computed := metric(t, s, mCells+`{outcome="computed"}`)
	failed := metric(t, s, mCells+`{outcome="failed"}`)
	skipped := metric(t, s, mCells+`{outcome="skipped"}`)
	if skipped == 0 || computed+failed+skipped != float64(spec.NumCells()) {
		t.Fatalf("after disconnect: %v computed, %v failed, %v skipped of %d cells; want some skipped, none lost",
			computed, failed, skipped, spec.NumCells())
	}

	st, err = cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, done, err := st.Drain()
	if err != nil || done == nil {
		t.Fatalf("resubmission: done=%v err=%v", done, err)
	}
	if got := float64(done.Metrics.FromJournal); got != computed {
		t.Fatalf("resubmission served %v cells from the journal, want the %v computed before the disconnect", got, computed)
	}
}

// Malformed and oversized specs are rejected with 400 before any
// simulation or journal I/O; wrong methods with 405.
func TestSpecRejection(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxCells: 50})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(cl.Base+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	cases := []struct {
		name, body string
	}{
		{"unknown design", `{"designs":["warp-drive"]}`},
		{"unknown workload", `{"workloads":["fortnite"]}`},
		{"unknown trace", `{"traces":["tr99"]}`},
		{"unknown field", `{"bogus":1}`},
		{"not json", `designs=wl`},
		{"oversized scale", `{"scale":65}`},
		{"retired cell budget", `{"designs":["wl"],"workloads":["adpcmencode"],"traces":["none"],"cell_budget_ms":100}`},
		{"grid out of range", `{"grid":{"maxline":[65]}}`},
		{"unknown tier", `{"tier":"warp"}`},
		{"too many cells", `{}`}, // 78 golden cells > MaxCells 50
		{"repeated design", `{"designs":["wl","wl"],"workloads":["adpcmencode"],"traces":["none"]}`},
		{"repeated workload", `{"designs":["wl"],"workloads":["adpcmencode","sha","adpcmencode"],"traces":["none"]}`},
		{"repeated trace", `{"designs":["wl"],"workloads":["adpcmencode"],"traces":["none","none"]}`},
		{"repeated maxline", `{"designs":["wl"],"workloads":["adpcmencode"],"traces":["none"],"grid":{"maxline":[2,4,2]}}`},
		{"repeated dqcap", `{"designs":["wl"],"workloads":["adpcmencode"],"traces":["none"],"grid":{"dqcap":[8,8]}}`},
	}
	for _, c := range cases {
		if resp := post(c.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// A repeat is named by its dimension and entry.
	for want, spec := range map[string]Spec{
		`designs lists "wl" twice`:    {Designs: []string{"wl", "wl"}},
		`workloads lists "sha" twice`: {Workloads: []string{"sha", "qsort", "sha"}},
		`traces lists "none" twice`:   {Traces: []string{"none", "none"}},
		`grid.maxline lists 2 twice`:  {Grid: &Grid{Maxline: []int{2, 4, 2}}},
		`grid.dqcap lists 8 twice`:    {Grid: &Grid{DQCap: []int{8, 8}}},
	} {
		if err := spec.normalize().validate(); err == nil || err.Error() != want {
			t.Errorf("validate = %v, want %q", err, want)
		}
	}
	resp, err := http.Get(cl.Base + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
	if got := metric(t, s, mSweepsAccepted); got != 0 {
		t.Fatalf("rejected specs were accepted: %v", got)
	}
}

// healthz answers while draining (liveness), readyz does not
// (readiness), and metrics serves a well-formed scrape.
func TestProbes(t *testing.T) {
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	go s.Shutdown(context.Background())
	waitFor(t, func() bool { return metric(t, s, mDraining) == 1 })
	resp, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	if err := cl.Ready(ctx); err == nil {
		t.Fatal("readyz 200 while draining")
	}
}

// The spec's content hash is stable across equivalent spellings (empty
// vs explicit defaults) and distinct across different sweeps — it keys
// the journal files, so a collision would cross-wire resumes.
func TestSpecIDStability(t *testing.T) {
	var defaults Spec
	explicit := Spec{
		Workloads: expt.GoldenWorkloads(),
		Scale:     1,
	}
	if defaults.ID("e1") != explicit.ID("e1") {
		t.Fatal("equivalent specs hash differently")
	}
	if defaults.ID("e1") == defaults.ID("e2") {
		t.Fatal("engine version not mixed into the sweep id")
	}
	other := Spec{Workloads: []string{"sha"}}
	if defaults.ID("e1") == other.ID("e1") {
		t.Fatal("different specs collide")
	}
}

// The engine tier is part of a sweep's identity at every level: the
// empty spelling keeps the pre-tier sweep ID (so committed journals
// stay addressable), "fast" hashes differently, and the planned
// cells' fingerprints differ between tiers (so a journal entry from
// one tier can never satisfy a resume under the other).
func TestSpecTierIdentity(t *testing.T) {
	var defaults Spec
	exact := Spec{Tier: "exact"}
	fast := Spec{Tier: "fast"}
	if defaults.ID("e1") == exact.ID("e1") {
		// "" and "exact" select the same engine but are distinct
		// spellings; only "" is the committed pre-tier form.
		t.Log(`note: "" and "exact" hash alike`) // documents either outcome
	}
	if defaults.ID("e1") == fast.ID("e1") {
		t.Fatal("fast-tier spec hashes like the exact default")
	}
	if err := fast.normalize().validate(); err != nil {
		t.Fatalf("fast tier rejected: %v", err)
	}
	ec := defaults.cells()
	fc := fast.cells()
	if len(ec) == 0 || len(ec) != len(fc) {
		t.Fatalf("cell counts: exact %d, fast %d", len(ec), len(fc))
	}
	for i := range ec {
		if ec[i].cell.Fingerprint == fc[i].cell.Fingerprint {
			t.Fatalf("cell %s: identical fingerprint across tiers", ec[i].cell.ID)
		}
	}
}

// A corrupt journal on disk is quarantined at startup — renamed aside,
// counted, and the server still comes up serving everything else.
func TestCorruptJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, strings.Repeat("ab", 32)+".jsonl")
	// Interior corruption: garbage between two valid-shaped lines is
	// not crash damage an append-only writer can produce.
	content := fmt.Sprintf("{\"schema\":%q,\"engine\":%q}\nnot json at all\n{\"addr\":\"x\",\"id\":\"y\",\"fp\":\"z\",\"result\":{}}\n",
		runner.Schema, sim.EngineVersion)
	if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("corrupt journal killed startup: %v", err)
	}
	if got := metric(t, s, mJournalsQuarantined); got != 1 {
		t.Fatalf("quarantined = %v, want 1", got)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt journal not renamed aside: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt journal still in place: %v", err)
	}
}

// Startup leaves a journal it does not own as it found it. One of
// another engine version stays in place byte for byte, its records
// counted as dropped; one of another schema is quarantined, its bytes
// kept in the renamed-aside file.
func TestStartupLeavesForeignJournalsAlone(t *testing.T) {
	dir := t.TempDir()
	record := func(engine, fp string) string {
		return fmt.Sprintf("{\"addr\":%q,\"id\":\"c\",\"fp\":%q,\"result\":{}}\n", runner.Address(engine, fp), fp)
	}
	foreignEngine := filepath.Join(dir, strings.Repeat("cd", 32)+".jsonl")
	engineBytes := fmt.Sprintf("{\"schema\":%q,\"engine\":\"e0\"}\n", runner.Schema) + record("e0", "a") + record("e0", "b")
	foreignSchema := filepath.Join(dir, strings.Repeat("ef", 32)+".jsonl")
	schemaBytes := "{\"schema\":\"wlrun/v0\",\"engine\":\"" + sim.EngineVersion + "\"}\n" + record(sim.EngineVersion, "a")
	for path, content := range map[string]string{foreignEngine: engineBytes, foreignSchema: schemaBytes} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	for path, want := range map[string]string{foreignEngine: engineBytes, foreignSchema + ".corrupt": schemaBytes} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%s changed at startup:\n got %q\nwant %q", filepath.Base(path), got, want)
		}
	}
	if got := metric(t, s, mJournalDropped); got != 2 {
		t.Fatalf("dropped records = %v, want the foreign engine's 2", got)
	}
	if got := metric(t, s, mJournalsQuarantined); got != 1 {
		t.Fatalf("quarantined = %v, want the foreign schema's 1", got)
	}
	if got := metric(t, s, mStoreLoaded); got != 0 {
		t.Fatalf("store loaded %v foreign results", got)
	}
}

// metric reads one series from the server's metrics as /metrics
// renders them, failing the test if the series is absent.
func metric(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	m, err := s.Metrics()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	v, ok := m[series]
	if !ok {
		t.Fatalf("/metrics has no series %s", series)
	}
	return v
}

// waitFor polls a condition with a deadline; serve tests use it to
// sequence admission states without sleeping blind.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
