package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"wlcache/internal/sim"
)

// Concurrent callers racing on one address compute it exactly once;
// everyone gets the leader's result.
func TestFlightSingleFlight(t *testing.T) {
	f := NewFlight()
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]sim.Result, callers)
	computed := make([]bool, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, c, err := f.Do(context.Background(), "addr", func() (sim.Result, error) {
				computes.Add(1)
				<-gate // hold every non-leader in the waiting path
				return fakeResult(7), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], computed[i] = res, c
		}()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	nComputed := 0
	for i := range results {
		if results[i] != fakeResult(7) {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if computed[i] {
			nComputed++
		}
	}
	if nComputed != 1 {
		t.Fatalf("%d callers report computed=true, want exactly 1 (the leader)", nComputed)
	}
}

// A failed leader does not poison the address: a waiter takes over
// leadership and computes; failures are never cached.
func TestFlightFailureHandsOverLeadership(t *testing.T) {
	f := NewFlight()
	var calls atomic.Int64
	compute := func() (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, errors.New("first leader dies")
		}
		return fakeResult(3), nil
	}
	const callers = 4
	var wg sync.WaitGroup
	var failures, successes atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := f.Do(context.Background(), "addr", compute)
			if err != nil {
				failures.Add(1)
				return
			}
			if res != fakeResult(3) {
				t.Errorf("got %+v", res)
			}
			successes.Add(1)
		}()
	}
	wg.Wait()
	// The first leader fails its own call; every other caller must end
	// up with the recovered result, served or computed.
	if failures.Load() != 1 || successes.Load() != callers-1 {
		t.Fatalf("failures=%d successes=%d, want 1/%d", failures.Load(), successes.Load(), callers-1)
	}
	// The published result now serves without recomputation.
	res, computed, err := f.Do(context.Background(), "addr", compute)
	if err != nil || computed || res != fakeResult(3) {
		t.Fatalf("published result not served: res=%+v computed=%t err=%v", res, computed, err)
	}
}

// A waiter whose context dies stops waiting with the cancellation
// cause instead of blocking on a stuck leader.
func TestFlightWaiterHonorsContext(t *testing.T) {
	f := NewFlight()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go f.Do(context.Background(), "addr", func() (sim.Result, error) {
		close(leaderIn)
		<-release
		return fakeResult(1), nil
	})
	<-leaderIn
	cause := errors.New("deadline budget spent")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, _, err := f.Do(ctx, "addr", func() (sim.Result, error) {
		t.Error("cancelled waiter must not become leader")
		return sim.Result{}, nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

// A cell whose sweep is cancelled while it waits on another sweep's
// in-flight compute never computed: it is a skip carrying the
// cancellation cause, not a failure.
func TestFlightCancelledWaiterIsSkipped(t *testing.T) {
	shared := NewFlight()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leader := Cell{ID: "leader", Fingerprint: "fp-x", Run: func(context.Context) (sim.Result, error) {
		close(leaderIn)
		<-release
		return fakeResult(1), nil
	}}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := RunCells(context.Background(), Config{Workers: 1, Engine: "test", Shared: shared}, []Cell{leader})
		leaderDone <- err
	}()
	<-leaderIn

	// Cancel the waiter's sweep once its worker has passed the pickup
	// check: from there on the cell can only wait on the blocked leader.
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	picked := &pickupSignal{Context: ctx, picked: make(chan struct{})}
	go func() {
		<-picked.picked
		cancel(cause)
	}()
	waiter := Cell{ID: "waiter", Fingerprint: "fp-x", Run: func(context.Context) (sim.Result, error) {
		t.Error("cancelled waiter computed")
		return sim.Result{}, nil
	}}
	rep, err := RunCells(picked, Config{Workers: 1, Engine: "test", Shared: shared}, []Cell{waiter})
	close(release)
	if lerr := <-leaderDone; lerr != nil {
		t.Fatal(lerr)
	}
	if rep.Metrics.Skipped != 1 || rep.Metrics.Failed != 0 {
		t.Fatalf("metrics %+v, want 1 skipped and 0 failed", rep.Metrics)
	}
	if !errors.Is(err, ErrSkipped) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want a skip carrying the cancellation cause", err)
	}
}

// pickupSignal closes picked after the first Err call on it: the
// worker's pickup check, the sweep's one cancellation gate before a
// compute.
type pickupSignal struct {
	context.Context
	once   sync.Once
	picked chan struct{}
}

func (c *pickupSignal) Err() error {
	err := c.Context.Err()
	c.once.Do(func() { close(c.picked) })
	return err
}

// Seed publishes reloaded journal results; the last write wins, same
// as journal reload dedup.
func TestFlightSeedLastWriteWins(t *testing.T) {
	f := NewFlight()
	f.Seed("a", fakeResult(1))
	f.Seed("a", fakeResult(2))
	f.Seed("b", fakeResult(3))
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	res, computed, err := f.Do(context.Background(), "a", func() (sim.Result, error) {
		t.Error("seeded address recomputed")
		return sim.Result{}, nil
	})
	if err != nil || computed || res != fakeResult(2) {
		t.Fatalf("res=%+v computed=%t err=%v, want seeded result 2", res, computed, err)
	}
}

// Two concurrent RunCells sweeps sharing a Flight compute every
// overlapping cell exactly once: one sweep's metrics show the compute,
// the other's show the shared-store hit, and only the computing sweep
// journals it.
func TestRunCellsSharedStoreDedup(t *testing.T) {
	shared := NewFlight()
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
		return cells
	}
	var wg sync.WaitGroup
	reps := make([]Report, 2)
	for s := 0; s < 2; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunCells(context.Background(), Config{
				Workers: 2, Engine: "test", Shared: shared,
			}, mkCells())
			if err != nil {
				t.Error(err)
			}
			reps[s] = rep
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 6 {
		t.Fatalf("computed %d cells across both sweeps, want exactly 6", got)
	}
	totalComputed := reps[0].Metrics.Computed + reps[1].Metrics.Computed
	totalShared := reps[0].Metrics.FromShared + reps[1].Metrics.FromShared
	if totalComputed != 6 || totalShared != 6 {
		t.Fatalf("computed=%d shared=%d, want 6/6: %+v / %+v",
			totalComputed, totalShared, reps[0].Metrics, reps[1].Metrics)
	}
	for s, rep := range reps {
		for i := range rep.Results {
			if rep.Results[i] != fakeResult(i) {
				t.Fatalf("sweep %d cell %d: %+v", s, i, rep.Results[i])
			}
		}
	}
}

// OnCell fires once per cell with the correct source, on every path:
// journal reload, shared-store hit, fresh compute, permanent failure.
func TestOnCellSources(t *testing.T) {
	dir := t.TempDir()
	journal := dir + "/j.jsonl"
	cells := []Cell{
		{ID: "ok", Fingerprint: "fp-ok", Run: func(context.Context) (sim.Result, error) { return fakeResult(1), nil }},
		{ID: "bad", Fingerprint: "fp-bad", Optional: true, Run: func(context.Context) (sim.Result, error) {
			return sim.Result{}, errors.New("infeasible")
		}},
	}
	runOnce := func(shared *Flight) map[string]CellSource {
		var mu sync.Mutex
		sources := map[string]CellSource{}
		j := mustOpenJournal(t, journal, "test", JournalHooks{})
		defer j.Close()
		_, err := RunCells(context.Background(), Config{
			Workers: 1, Engine: "test", Journal: j, Shared: shared,
			OnCell: func(d CellDone) {
				mu.Lock()
				defer mu.Unlock()
				if prev, dup := sources[d.ID]; dup {
					t.Errorf("cell %s reported twice (%s then %s)", d.ID, prev, d.Source)
				}
				sources[d.ID] = d.Source
			},
		}, cells)
		if err != nil {
			t.Fatal(err)
		}
		return sources
	}

	if got := runOnce(nil); got["ok"] != SourceComputed || got["bad"] != SourceFailed {
		t.Fatalf("first run sources %v", got)
	}
	if got := runOnce(nil); got["ok"] != SourceJournal || got["bad"] != SourceFailed {
		t.Fatalf("resumed run sources %v", got)
	}
	shared := NewFlight()
	shared.Seed(Address("test", "fp-ok"), fakeResult(9))
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if got := runOnce(shared); got["ok"] != SourceShared || got["bad"] != SourceFailed {
		t.Fatalf("shared-store run sources %v", got)
	}
}
