// Package runner is the crash-resumable sweep execution substrate: a
// bounded worker pool that drains a matrix of simulation cells,
// content-addresses every cell (hash of the caller's canonical design
// config + workload + trace fingerprint, mixed with the engine
// version), and journals each completed sim.Result to an append-only,
// fsync'd JSONL file (wlrun/v1). A sweep killed at any instant —
// SIGKILL, panic, power loss — resumes by reloading the journal:
// journaled cells are served back by hash with zero recomputation, a
// torn final record is discarded rather than fatal, and only the
// missing cells run.
//
// The package applies the same intermittent-computing discipline the
// repo's internal/fault audit enforces on the *simulated* designs to
// the simulator's own execution: all work is idempotent, persistence
// is small and incremental, and recovery is verified (addresses are
// recomputed on reload, so a stale or tampered record is recomputed,
// never served).
//
// A cell runs once. The simulator is deterministic, so a cell that
// failed would fail the same way again: its error (or recovered panic,
// typed and carrying the cell's identity) is recorded, never retried.
// Cancellation converts every cell not yet computed into a
// deterministic skip error. The aggregate error is always the first
// failing cell by submission index — never a scheduling race.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wlcache/internal/sim"
)

// Cell is one unit of sweep work.
type Cell struct {
	// ID is the human-readable identity used in error messages,
	// conventionally "design/workload/trace".
	ID string
	// Fingerprint is the canonical serialization of everything that
	// determines the cell's result (design config, workload, scale,
	// trace parameters). Cells with equal fingerprints are assumed
	// interchangeable. Empty means the cell is not content-addressable
	// (e.g. it carries live hooks); it always recomputes and is never
	// journaled.
	Fingerprint string
	// Optional cells may fail: their Result stays zero and their error
	// is recorded but does not fail the sweep.
	Optional bool
	// Run computes the cell. The context carries sweep cancellation;
	// the simulator itself is not preemptible, so cancellation only
	// stops cells that have not started.
	Run func(ctx context.Context) (sim.Result, error)
}

// Config tunes a sweep.
type Config struct {
	// Workers bounds the worker pool (0 = NumCPU).
	Workers int
	// Engine is the engine version mixed into content addresses
	// (conventionally sim.EngineVersion).
	Engine string
	// Journal, when set, makes the sweep crash-resumable: cells already
	// in it are served with zero recomputation, and every computed
	// content-addressable cell is durably appended to it. The caller
	// opens it for Engine (binding its hooks) and closes it; sweeps
	// may share one open journal, one after another or at once.
	Journal *Journal
	// Shared, when set, is a cross-sweep single-flight result store:
	// content-addressable cells are served from it when already
	// published, and concurrent sweeps racing on the same address
	// compute it exactly once. Cells served from the shared store are
	// NOT appended to this sweep's journal — the sweep that computed
	// them journaled them, and a restarted server reloads every journal
	// into the store.
	Shared *Flight
	// OnCell, when set, is invoked once per submitted cell as its
	// outcome becomes known, carrying the result (or error) and where
	// it came from. It may be called concurrently from worker
	// goroutines; the sweep service uses it to stream per-cell results
	// to clients as they land.
	OnCell func(done CellDone)
}

// CellSource says where a cell's outcome came from.
type CellSource string

// The cell outcome sources.
const (
	SourceJournal  CellSource = "journal"  // served from this sweep's journal
	SourceShared   CellSource = "shared"   // served by the cross-sweep shared store
	SourceDedup    CellSource = "dedup"    // identical cell completed earlier in this run
	SourceComputed CellSource = "computed" // executed in this run
	SourceFailed   CellSource = "failed"   // simulator error or recovered panic
	SourceSkipped  CellSource = "skipped"  // never computed (cancellation)
)

// CellDone reports one finished cell to Config.OnCell.
type CellDone struct {
	Index  int
	ID     string
	Result sim.Result
	Err    error
	Source CellSource

	// Wait is how long the cell sat in the worker queue before a
	// worker picked it up (zero for journal-served cells, which never
	// reach the pool).
	Wait time.Duration
	// Dur is the wall time from worker pickup to outcome: compute time
	// for computed cells, the wait on another sweep's in-flight compute
	// for shared serves, ~zero for in-run dedup hits.
	Dur time.Duration
}

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// Metrics counts what a sweep did — the resume proof reads these:
// FromJournal must equal the journaled population and Computed must
// cover exactly the rest.
type Metrics struct {
	Cells          int // submitted
	FromJournal    int // served from the journal, no recompute
	FromShared     int // served from the cross-sweep shared store, no recompute
	Deduped        int // served from an identical cell completed earlier in this run
	Computed       int // executed to success in this run
	Failed         int // failure of a required cell
	OptionalFailed int // failure of an optional cell (zero Result)
	Skipped        int // never computed (cancellation)
	Panics         int // recovered cell panics
	// Journal is what opening the sweep's journal found and discarded.
	Journal LoadStats
}

// Report is everything a sweep produced. Results and Errs are indexed
// like the submitted cells; failed or skipped cells hold a zero Result
// and a *CellError.
type Report struct {
	Results []sim.Result
	Errs    []error
	Metrics Metrics

	// optional mirrors the submitted cells' Optional flags so FirstErr
	// can skip tolerated failures.
	optional []bool
}

// FirstErr returns the deterministic aggregate error: the failure of
// the lowest-index non-optional cell, or nil.
func (r *Report) FirstErr() error {
	for i, err := range r.Errs {
		if err != nil && !r.optional[i] {
			return err
		}
	}
	return nil
}

// RunCells executes the sweep and returns the report plus the
// deterministic aggregate error (first failing required cell by index,
// or a journal infrastructure error). The report is always populated:
// a failing sweep still carries every completed result.
func RunCells(ctx context.Context, cfg Config, cells []Cell) (Report, error) {
	cfg = cfg.normalize()
	if ctx == nil {
		ctx = context.Background()
	}
	rep := Report{
		Results:  make([]sim.Result, len(cells)),
		Errs:     make([]error, len(cells)),
		optional: make([]bool, len(cells)),
	}
	rep.Metrics.Cells = len(cells)
	for i, c := range cells {
		rep.optional[i] = c.Optional
	}

	journal := cfg.Journal
	if journal != nil {
		if journal.engine != cfg.Engine {
			return rep, fmt.Errorf("runner: journal opened for engine %q, sweep runs %q", journal.engine, cfg.Engine)
		}
		rep.Metrics.Journal = journal.stats
	}

	emit := func(i int, res sim.Result, err error, src CellSource, wait, dur time.Duration) {
		if cfg.OnCell != nil {
			cfg.OnCell(CellDone{Index: i, ID: cells[i].ID, Result: res, Err: err, Source: src,
				Wait: wait, Dur: dur})
		}
	}

	// Serve journaled cells first: zero recomputation, no worker
	// involvement, deterministic regardless of pool scheduling.
	addrs := make([]string, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		if c.Fingerprint != "" {
			addrs[i] = Address(cfg.Engine, c.Fingerprint)
			if res, ok := journal.lookup(addrs[i]); ok {
				rep.Results[i] = res
				rep.Metrics.FromJournal++
				emit(i, res, nil, SourceJournal, 0, 0)
				continue
			}
		}
		pending = append(pending, i)
	}

	var (
		mu        sync.Mutex                    // guards cache and journErr
		cache     = make(map[string]sim.Result) // cells computed or served in this run
		counters  struct{ computed, failed, optFailed, skipped, panics, deduped, fromShared atomic.Int64 }
		journErr  error // first journal append error
		attempted = make([]atomic.Bool, len(cells))
	)

	workers := cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	idx := make(chan int)
	poolStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain; unattempted cells become skips below
				}
				attempted[i].Store(true)
				c := cells[i]
				// Every pending cell was runnable the moment the pool
				// started; pickup minus pool start is its queue wait.
				pick := time.Now()
				wait := pick.Sub(poolStart)

				// A cell identical to one computed earlier in this
				// run is served from the in-run cache.
				if addrs[i] != "" {
					mu.Lock()
					res, ok := cache[addrs[i]]
					mu.Unlock()
					if ok {
						rep.Results[i] = res
						counters.deduped.Add(1)
						emit(i, res, nil, SourceDedup, wait, time.Since(pick))
						continue
					}
				}

				var res sim.Result
				var err error
				src := SourceComputed
				if cfg.Shared != nil && addrs[i] != "" {
					var ran bool
					res, ran, err = cfg.Shared.Do(ctx, addrs[i], func() (sim.Result, error) {
						return safeRun(ctx, c, &counters.panics)
					})
					if !ran {
						if err != nil {
							// The sweep was cancelled while this cell
							// waited on another sweep's compute: it never
							// computed, so it becomes a skip below.
							attempted[i].Store(false)
							continue
						}
						src = SourceShared
					}
				} else {
					res, err = safeRun(ctx, c, &counters.panics)
				}
				dur := time.Since(pick)
				if err != nil {
					rep.Errs[i] = &CellError{Index: i, ID: c.ID, Err: err}
					if c.Optional {
						counters.optFailed.Add(1)
					} else {
						counters.failed.Add(1)
					}
					emit(i, sim.Result{}, rep.Errs[i], SourceFailed, wait, dur)
					continue
				}
				rep.Results[i] = res
				if src == SourceShared {
					// Another sweep computed (and journaled) this cell;
					// serving it here is pure dedup, not new work.
					counters.fromShared.Add(1)
				} else {
					counters.computed.Add(1)
					if journal != nil && addrs[i] != "" {
						if aerr := journal.Append(addrs[i], c.ID, c.Fingerprint, res); aerr != nil {
							mu.Lock()
							if journErr == nil {
								journErr = aerr
							}
							mu.Unlock()
						}
					}
				}
				if addrs[i] != "" {
					mu.Lock()
					cache[addrs[i]] = res
					mu.Unlock()
				}
				emit(i, res, nil, src, wait, time.Since(pick))
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Cells never handed to (or declined by) a worker, and cells whose
	// wait on another sweep's compute was cancelled, are deterministic
	// skips, not silent holes.
	for _, i := range pending {
		if !attempted[i].Load() {
			cause := context.Cause(ctx)
			if cause == nil {
				cause = context.Canceled
			}
			rep.Errs[i] = &CellError{Index: i, ID: cells[i].ID, Err: errorsJoin(ErrSkipped, cause)}
			counters.skipped.Add(1)
			emit(i, sim.Result{}, rep.Errs[i], SourceSkipped, 0, 0)
		}
	}

	rep.Metrics.Computed = int(counters.computed.Load())
	rep.Metrics.FromShared = int(counters.fromShared.Load())
	rep.Metrics.Failed = int(counters.failed.Load())
	rep.Metrics.OptionalFailed = int(counters.optFailed.Load())
	rep.Metrics.Skipped = int(counters.skipped.Load())
	rep.Metrics.Panics = int(counters.panics.Load())
	rep.Metrics.Deduped = int(counters.deduped.Load())

	if err := rep.FirstErr(); err != nil {
		return rep, err
	}
	if journErr != nil {
		return rep, journErr
	}
	return rep, nil
}

// safeRun isolates a cell panic to a typed error instead of
// collapsing the sweep.
func safeRun(ctx context.Context, c Cell, panics *atomic.Int64) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			panics.Add(1)
			res = sim.Result{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return c.Run(ctx)
}

// errorsJoin wraps skip + cause so both match under errors.Is.
func errorsJoin(sentinel, cause error) error {
	if cause == nil {
		return sentinel
	}
	return errors.Join(sentinel, cause)
}
