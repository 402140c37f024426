package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wlcache/internal/sim"
)

// fakeResult builds a distinct, deterministic result per cell index,
// with non-trivial float bit patterns so round-trip comparisons mean
// something.
func fakeResult(i int) sim.Result {
	r := sim.Result{
		Design:       fmt.Sprintf("d%d", i),
		Workload:     fmt.Sprintf("w%d", i),
		Trace:        "tr1",
		ExecTime:     int64(1000 + i),
		Instructions: uint64(7 * i),
		Outages:      uint64(i % 5),
		Checksum:     uint32(0xdead0000 + i),
	}
	r.Energy.Compute = 1.0 / float64(i+3)
	r.ReserveWasted = 3.14159e-9 * float64(i+1)
	r.Extra.Writebacks = uint64(i * i)
	return r
}

// okCell computes fakeResult(i).
func okCell(i int) Cell {
	return Cell{
		ID:          fmt.Sprintf("cell-%d", i),
		Fingerprint: fmt.Sprintf("fp-%d", i),
		Run:         func(context.Context) (sim.Result, error) { return fakeResult(i), nil },
	}
}

func TestRunCellsComputesAll(t *testing.T) {
	cells := make([]Cell, 20)
	for i := range cells {
		cells[i] = okCell(i)
	}
	rep, err := RunCells(context.Background(), Config{Workers: 4, Engine: "test"}, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if rep.Results[i] != fakeResult(i) {
			t.Fatalf("cell %d: result %+v", i, rep.Results[i])
		}
	}
	if rep.Metrics.Computed != 20 || rep.Metrics.FromJournal != 0 || rep.Metrics.Failed != 0 {
		t.Fatalf("metrics %+v", rep.Metrics)
	}
}

// The aggregate error must be the first failing cell by submission
// index — not whichever worker lost the race — and every completed
// result must still be returned.
func TestFirstErrorByIndexIsDeterministic(t *testing.T) {
	boom := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		cells := make([]Cell, 16)
		for i := range cells {
			i := i
			if i == 3 || i == 11 {
				// Later-indexed failure (11) completes much faster
				// than 3 — a race-dependent aggregator would report
				// it first.
				delay := 20 * time.Millisecond
				if i == 11 {
					delay = 0
				}
				cells[i] = Cell{
					ID: fmt.Sprintf("cell-%d", i),
					Run: func(context.Context) (sim.Result, error) {
						time.Sleep(delay)
						return sim.Result{}, fmt.Errorf("%w (cell %d)", boom, i)
					},
				}
				continue
			}
			cells[i] = okCell(i)
		}
		rep, err := RunCells(context.Background(), Config{Workers: 8, Engine: "test"}, cells)
		if err == nil {
			t.Fatal("failing sweep returned nil error")
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("error %T does not attribute a cell: %v", err, err)
		}
		if ce.Index != 3 || ce.ID != "cell-3" {
			t.Fatalf("trial %d: aggregate error picked cell %d (%s), want deterministic first-by-index 3", trial, ce.Index, ce.ID)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("cause not preserved: %v", err)
		}
		// Completed results ride along with the error.
		if rep.Results[5] != fakeResult(5) {
			t.Fatalf("trial %d: completed result 5 missing: %+v", trial, rep.Results[5])
		}
		if rep.Metrics.Failed != 2 || rep.Metrics.Computed != 14 {
			t.Fatalf("metrics %+v", rep.Metrics)
		}
	}
}

// A panicking cell runs once and becomes a typed, cell-attributed
// error; the rest of the sweep completes.
func TestPanicIsolation(t *testing.T) {
	var tries atomic.Int64
	cells := []Cell{
		okCell(0),
		{ID: "poisoned", Run: func(context.Context) (sim.Result, error) {
			tries.Add(1)
			panic("kaboom")
		}},
		okCell(2),
	}
	rep, err := RunCells(context.Background(), Config{Workers: 2, Engine: "test"}, cells)
	if err == nil {
		t.Fatal("panicking sweep returned nil error")
	}
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("panic not typed: %v", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.ID != "poisoned" {
		t.Fatalf("panic not attributed to the offending cell: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload lost: %v", err)
	}
	if rep.Results[0] != fakeResult(0) || rep.Results[2] != fakeResult(2) {
		t.Fatal("panic took down healthy cells")
	}
	if rep.Metrics.Panics != 1 {
		t.Fatalf("metrics %+v", rep.Metrics)
	}
	if got := tries.Load(); got != 1 {
		t.Fatalf("panicking cell ran %d times, want 1", got)
	}
}

// Optional cells may fail without failing the sweep; their result
// stays zero. A failing cell runs once — the simulator is
// deterministic — and its own error surfaces intact.
func TestOptionalFailureTolerated(t *testing.T) {
	var tries atomic.Int64
	cells := []Cell{
		okCell(0),
		{ID: "infeasible", Optional: true, Run: func(context.Context) (sim.Result, error) {
			tries.Add(1)
			return sim.Result{}, errors.New("cannot charge reserve")
		}},
	}
	rep, err := RunCells(context.Background(), Config{Workers: 2, Engine: "test"}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errs[1] == nil || rep.Results[1] != (sim.Result{}) {
		t.Fatalf("optional failure not recorded: errs=%v", rep.Errs)
	}
	if msg := rep.Errs[1].Error(); msg != "cell infeasible: cannot charge reserve" {
		t.Fatalf("failure message %q, want the cell's own error attributed to it", msg)
	}
	if rep.Metrics.OptionalFailed != 1 {
		t.Fatalf("metrics %+v", rep.Metrics)
	}
	if got := tries.Load(); got != 1 {
		t.Fatalf("failing cell ran %d times, want 1", got)
	}
}

// Cancellation degrades gracefully: started cells finish, unstarted
// cells become deterministic typed skips, and the sweep reports rather
// than hangs or aborts. A context cancelled before the sweep starts
// skips every cell and computes none.
func TestCancellationSkipsDeterministically(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool // cancel before RunCells instead of mid-sweep
	}{{"mid-sweep", false}, {"before start", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.before {
				cancel()
			}
			release := make(chan struct{})
			var started atomic.Int64
			cells := make([]Cell, 12)
			for i := range cells {
				i := i
				cells[i] = Cell{
					ID: fmt.Sprintf("cell-%d", i),
					Run: func(context.Context) (sim.Result, error) {
						if started.Add(1) == 2 {
							cancel()
						}
						<-release
						return fakeResult(i), nil
					},
				}
			}
			go func() {
				// Free the in-flight cells once cancellation has landed.
				<-ctx.Done()
				close(release)
			}()
			rep, err := RunCells(ctx, Config{Workers: 2, Engine: "test"}, cells)
			if !errors.Is(err, ErrSkipped) || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep returned %v, want a typed skip", err)
			}
			if rep.Metrics.Skipped == 0 {
				t.Fatalf("no skips recorded: %+v", rep.Metrics)
			}
			if rep.Metrics.Computed+rep.Metrics.Skipped != len(cells) {
				t.Fatalf("cells unaccounted: %+v", rep.Metrics)
			}
			if tc.before && (rep.Metrics.Skipped != len(cells) || started.Load() != 0) {
				t.Fatalf("pre-cancelled sweep ran %d cells: %+v", started.Load(), rep.Metrics)
			}
			for i, cerr := range rep.Errs {
				if cerr != nil && !errors.Is(cerr, ErrSkipped) {
					t.Fatalf("cell %d: unexpected error class: %v", i, cerr)
				}
				if cerr != nil && !errors.Is(cerr, context.Canceled) {
					t.Fatalf("cell %d: skip does not carry the cancellation cause: %v", i, cerr)
				}
			}
		})
	}
}

// Two cells with identical fingerprints dedupe within one run: the
// second serves from the in-run cache.
func TestInRunDedup(t *testing.T) {
	var computes atomic.Int64
	mk := func(id string) Cell {
		return Cell{ID: id, Fingerprint: "same-fp", Run: func(context.Context) (sim.Result, error) {
			computes.Add(1)
			return fakeResult(7), nil
		}}
	}
	rep, err := RunCells(context.Background(), Config{Workers: 1, Engine: "test"}, []Cell{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	if rep.Results[0] != fakeResult(7) || rep.Results[1] != fakeResult(7) {
		t.Fatal("dedup lost a result")
	}
	if rep.Metrics.Deduped != 1 {
		t.Fatalf("metrics %+v", rep.Metrics)
	}
}

// Journaled cells are served on the next run with zero recomputation;
// cells with an empty fingerprint are never journaled.
func TestJournalRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	var computes atomic.Int64
	mkCells := func() []Cell {
		cells := make([]Cell, 6)
		for i := range cells {
			i := i
			cells[i] = Cell{
				ID:          fmt.Sprintf("cell-%d", i),
				Fingerprint: fmt.Sprintf("fp-%d", i),
				Run: func(context.Context) (sim.Result, error) {
					computes.Add(1)
					return fakeResult(i), nil
				},
			}
		}
		cells[5].Fingerprint = "" // live-hook cell: never journaled
		return cells
	}
	j1 := mustOpenJournal(t, journal, "test", JournalHooks{})
	rep1, err := RunCells(context.Background(), Config{Workers: 3, Engine: "test", Journal: j1}, mkCells())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Metrics.Computed != 6 || rep1.Metrics.FromJournal != 0 {
		t.Fatalf("first pass metrics %+v", rep1.Metrics)
	}
	j1.Close()

	computes.Store(0)
	j2 := mustOpenJournal(t, journal, "test", JournalHooks{})
	rep2, err := RunCells(context.Background(), Config{Workers: 3, Engine: "test", Journal: j2}, mkCells())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Metrics.FromJournal != 5 {
		t.Fatalf("served %d from journal, want 5: %+v", rep2.Metrics.FromJournal, rep2.Metrics)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("recomputed %d cells, want 1 (the unaddressable one)", got)
	}
	for i := 0; i < 6; i++ {
		if rep2.Results[i] != fakeResult(i) {
			t.Fatalf("cell %d served wrong result: %+v", i, rep2.Results[i])
		}
	}
}

// One open journal backs successive sweeps without a reopen: the
// second sweep serves every cell from the records the first appended
// and computes none, and both report the same open-time reload.
func TestJournalReusedWithoutReopen(t *testing.T) {
	j := mustOpenJournal(t, filepath.Join(t.TempDir(), "j.jsonl"), "test", JournalHooks{})
	var computes atomic.Int64
	cells := make([]Cell, 5)
	for i := range cells {
		i := i
		cells[i] = Cell{ID: fmt.Sprintf("cell-%d", i), Fingerprint: fmt.Sprintf("fp-%d", i),
			Run: func(context.Context) (sim.Result, error) {
				computes.Add(1)
				return fakeResult(i), nil
			}}
	}
	cfg := Config{Workers: 2, Engine: "test", Journal: j}
	rep1, err := RunCells(context.Background(), cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Metrics.Computed != len(cells) {
		t.Fatalf("first sweep metrics %+v", rep1.Metrics)
	}

	var sources []CellSource
	cfg.OnCell = func(d CellDone) { sources = append(sources, d.Source) }
	rep2, err := RunCells(context.Background(), cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Metrics.Computed != 0 || rep2.Metrics.FromJournal != len(cells) || computes.Load() != int64(len(cells)) {
		t.Fatalf("second sweep on the open journal: %+v after %d computes", rep2.Metrics, computes.Load())
	}
	for i, src := range sources {
		if src != SourceJournal {
			t.Fatalf("cell event %d source %q, want journal", i, src)
		}
	}
	for i := range cells {
		if rep2.Results[i] != fakeResult(i) {
			t.Fatalf("cell %d served %+v", i, rep2.Results[i])
		}
	}
	if rep1.Metrics.Journal != rep2.Metrics.Journal {
		t.Fatalf("reload stats moved between sweeps: %+v then %+v", rep1.Metrics.Journal, rep2.Metrics.Journal)
	}
}

// A different engine version invalidates every journaled record: the
// addresses cannot match, so the journal cannot be opened for the new
// engine, and a sweep of the new engine refuses a handle opened for
// the old one.
func TestEngineVersionInvalidatesJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	cells := []Cell{okCell(0)}
	j1 := mustOpenJournal(t, journal, "v1", JournalHooks{})
	if _, err := RunCells(context.Background(), Config{Workers: 1, Engine: "v1", Journal: j1}, cells); err != nil {
		t.Fatal(err)
	}
	rep, err := RunCells(context.Background(), Config{Workers: 1, Engine: "v2", Journal: j1}, []Cell{okCell(0)})
	if err == nil || rep.Metrics.FromJournal != 0 || rep.Metrics.Computed != 0 {
		t.Fatalf("v2 sweep ran on the v1 journal: %+v, err %v", rep.Metrics, err)
	}
	j1.Close()

	_, stats, err := OpenJournal(journal, "v2", JournalHooks{})
	if !errors.Is(err, ErrForeignEngine) {
		t.Fatalf("opening a v1 journal for v2: err = %v, want ErrForeignEngine", err)
	}
	if !stats.EngineMismatch || stats.Dropped != 1 {
		t.Fatalf("engine mismatch not reported: %+v", stats)
	}
}

func TestAddressIsStableAndDiscriminating(t *testing.T) {
	a := Address("e1", "fp")
	if a != Address("e1", "fp") {
		t.Fatal("address not deterministic")
	}
	if a == Address("e2", "fp") {
		t.Fatal("engine version not mixed into address")
	}
	if a == Address("e1", "fp2") {
		t.Fatal("fingerprint not mixed into address")
	}
	if len(a) != 64 {
		t.Fatalf("address %q not a hex sha256", a)
	}
}
