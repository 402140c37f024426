package runner

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"wlcache/internal/sim"
)

// The chaos tests apply the internal/fault discipline to the runner
// itself: deterministic, seed-driven damage — a sweep killed at an
// arbitrary journal append, a journal file torn at an arbitrary byte
// — followed by a resume that must stitch bit-identical results with
// zero recomputation of surviving records.

// chaosCells builds n addressable cells that count their executions.
func chaosCells(n int, computes *atomic.Int64) []Cell {
	cells := make([]Cell, n)
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

// A sweep aborted after a randomized number of journal appends resumes
// with every journaled cell served by hash and only the rest
// recomputed; the stitched results are identical to an uninterrupted
// run.
func TestChaosAbortResume(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(42))
	var clean atomic.Int64
	cleanRep, err := RunCells(context.Background(), Config{Workers: 4, Engine: "chaos"}, chaosCells(n, &clean))
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 8; trial++ {
		journal := filepath.Join(t.TempDir(), "j.jsonl")
		killAt := 1 + rng.Intn(n-1)

		// Phase 1: run until killAt cells are durable, then abort the
		// sweep as abruptly as an in-process harness can — cancel from
		// inside the journal's append lock, exactly where the real
		// chaos harness SIGKILLs.
		ctx, cancel := context.WithCancel(context.Background())
		var c1 atomic.Int64
		j1 := mustOpenJournal(t, journal, "chaos", JournalHooks{
			AfterAppend: func(done int) {
				if done == killAt {
					cancel()
				}
			},
		})
		RunCells(ctx, Config{Workers: 4, Engine: "chaos", Journal: j1}, chaosCells(n, &c1))
		cancel()
		j1.Close()

		// Phase 2: resume. Everything journaled must be served.
		var c2 atomic.Int64
		j2 := mustOpenJournal(t, journal, "chaos", JournalHooks{})
		rep, err := RunCells(context.Background(), Config{Workers: 4, Engine: "chaos", Journal: j2}, chaosCells(n, &c2))
		if err != nil {
			t.Fatalf("trial %d (killAt %d): resume failed: %v", trial, killAt, err)
		}
		if rep.Metrics.FromJournal < killAt {
			t.Fatalf("trial %d: only %d of %d journaled cells served", trial, rep.Metrics.FromJournal, killAt)
		}
		if rep.Metrics.FromJournal+rep.Metrics.Computed != n {
			t.Fatalf("trial %d: cells unaccounted on resume: %+v", trial, rep.Metrics)
		}
		if int(c2.Load()) != rep.Metrics.Computed {
			t.Fatalf("trial %d: journaled cells recomputed: %d executions for %d computed", trial, c2.Load(), rep.Metrics.Computed)
		}
		for i := 0; i < n; i++ {
			if rep.Results[i] != cleanRep.Results[i] {
				t.Fatalf("trial %d: stitched cell %d diverged from clean run", trial, i)
			}
		}
	}
}

// A journal torn at an arbitrary byte offset — the footprint of power
// loss mid-write, internal/fault's torn-write mode applied to the
// runner's own persistence — still resumes: intact records serve,
// the torn tail recomputes, results stay bit-identical.
func TestChaosTornJournalResume(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))

	// Build a complete journal once.
	fullPath := filepath.Join(t.TempDir(), "full.jsonl")
	var c0 atomic.Int64
	j0 := mustOpenJournal(t, fullPath, "chaos", JournalHooks{})
	cleanRep, err := RunCells(context.Background(), Config{Workers: 4, Engine: "chaos", Journal: j0}, chaosCells(n, &c0))
	if err != nil {
		t.Fatal(err)
	}
	j0.Close()
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 12; trial++ {
		cut := 1 + rng.Intn(len(full)-1)
		torn := filepath.Join(t.TempDir(), fmt.Sprintf("torn-%d.jsonl", trial))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var c atomic.Int64
		j := mustOpenJournal(t, torn, "chaos", JournalHooks{})
		rep, err := RunCells(context.Background(), Config{Workers: 4, Engine: "chaos", Journal: j}, chaosCells(n, &c))
		if err != nil {
			t.Fatalf("trial %d (cut %d/%d): resume failed: %v", trial, cut, len(full), err)
		}
		if rep.Metrics.FromJournal+rep.Metrics.Computed != n {
			t.Fatalf("trial %d: cells unaccounted: %+v", trial, rep.Metrics)
		}
		if int(c.Load()) != rep.Metrics.Computed {
			t.Fatalf("trial %d: served cells re-executed", trial)
		}
		for i := 0; i < n; i++ {
			if rep.Results[i] != cleanRep.Results[i] {
				t.Fatalf("trial %d (cut %d): stitched cell %d diverged", trial, cut, i)
			}
		}
	}
}
