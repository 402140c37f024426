package runner

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlcache/internal/sim"
)

// Every computed cell's CellDone carries its timing — a duration
// covering the cell's work, a non-negative queue wait — and
// each journal append's fsync is reported to the journal's
// ObserveFsync hook.
func TestCellDoneTimingAndFsyncHook(t *testing.T) {
	const n = 6
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			ID:          fmt.Sprintf("cell-%d", i),
			Fingerprint: fmt.Sprintf("fp-%d", i),
			Run: func(context.Context) (sim.Result, error) {
				time.Sleep(2 * time.Millisecond)
				return fakeResult(i), nil
			},
		}
	}

	var mu sync.Mutex
	var dones []CellDone
	var fsyncs atomic.Int64
	journal := mustOpenJournal(t, filepath.Join(t.TempDir(), "sweep.wlj"), "test", JournalHooks{
		ObserveFsync: func(d time.Duration) {
			if d < 0 {
				t.Errorf("negative fsync duration %v", d)
			}
			fsyncs.Add(1)
		},
	})
	cfg := Config{
		Workers: 2,
		Engine:  "test",
		Journal: journal,
		OnCell: func(d CellDone) {
			mu.Lock()
			dones = append(dones, d)
			mu.Unlock()
		},
	}
	if _, err := RunCells(context.Background(), cfg, cells); err != nil {
		t.Fatal(err)
	}

	if len(dones) != n {
		t.Fatalf("OnCell fired %d times, want %d", len(dones), n)
	}
	for _, d := range dones {
		if d.Source != SourceComputed {
			t.Fatalf("cell %s source %q, want computed", d.ID, d.Source)
		}
		if d.Dur < 2*time.Millisecond {
			t.Fatalf("cell %s dur %v, want >= the cell's 2ms of work", d.ID, d.Dur)
		}
		if d.Wait < 0 {
			t.Fatalf("cell %s negative wait %v", d.ID, d.Wait)
		}
	}
	// One durable append (and one fsync) per computed cell.
	if got := fsyncs.Load(); got != n {
		t.Fatalf("ObserveFsync fired %d times, want %d", got, n)
	}
}

// A cell served from the journal on a re-run reports the journal
// source and is not recomputed.
func TestCellDoneJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.wlj")
	var tries atomic.Int64
	cell := Cell{
		ID:          "c0",
		Fingerprint: "fp-0",
		Run: func(context.Context) (sim.Result, error) {
			tries.Add(1)
			return fakeResult(0), nil
		},
	}

	var dones []CellDone
	for run := 0; run < 2; run++ {
		j := mustOpenJournal(t, path, "test", JournalHooks{})
		cfg := Config{
			Workers: 1, Engine: "test", Journal: j,
			OnCell: func(d CellDone) { dones = append(dones, d) },
		}
		if _, err := RunCells(context.Background(), cfg, []Cell{cell}); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	if len(dones) != 2 || dones[0].Source != SourceComputed {
		t.Fatalf("CellDones %+v, want computed then journal", dones)
	}
	if d := dones[1]; d.Source != SourceJournal || d.Result != fakeResult(0) {
		t.Fatalf("replay CellDone = %+v, want the journaled result", d)
	}
	if tries.Load() != 1 {
		t.Fatalf("cell ran %d times total, want 1 (replay must not recompute)", tries.Load())
	}
}
