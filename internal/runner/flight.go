package runner

import (
	"context"
	"sync"

	"wlcache/internal/sim"
)

// Flight is a concurrent, content-addressed result store shared across
// sweeps, with single-flight execution: when several sweeps race on
// cells with the same address, exactly one caller computes while the
// rest wait for its published result. This is what lets a multi-client
// sweep service dedupe overlapping submissions to near-zero work — a
// cell is computed once per server lifetime no matter how many
// concurrent sweeps request it.
//
// Only successes are published. A leader whose compute fails releases
// the address, and one of the waiters takes over leadership and runs
// its own compute. A leader's failure can be its own sweep's: a sweep
// cancelled mid-compute must not poison the result for every other
// sweep. A deterministic simulator error is simply reproduced by each
// sweep that asks for the cell.
type Flight struct {
	mu       sync.Mutex
	done     map[string]sim.Result
	inflight map[string]chan struct{}
}

// NewFlight returns an empty shared store.
func NewFlight() *Flight {
	return &Flight{
		done:     make(map[string]sim.Result),
		inflight: make(map[string]chan struct{}),
	}
}

// Seed publishes an already-known result (e.g. reloaded from a journal
// at server startup) without computing anything. Later Seeds for the
// same address win, mirroring the journal's last-write-wins reload.
func (f *Flight) Seed(addr string, res sim.Result) {
	if f == nil || addr == "" {
		return
	}
	f.mu.Lock()
	f.done[addr] = res
	f.mu.Unlock()
}

// Len returns the number of published results.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.done)
}

// Do returns the published result for addr, or elects this caller to
// compute it. ran reports whether this caller's compute function ran;
// its result is published when it succeeded. ran false with a nil error
// means the result was served from the store or from another caller's
// in-flight compute; ran false with an error means ctx was cancelled
// while this caller waited, and the error is its cause. A compute error
// is returned only to the caller whose compute failed — waiters retry
// leadership instead of inheriting it.
func (f *Flight) Do(ctx context.Context, addr string, compute func() (sim.Result, error)) (res sim.Result, ran bool, err error) {
	for {
		f.mu.Lock()
		if r, ok := f.done[addr]; ok {
			f.mu.Unlock()
			return r, false, nil
		}
		ch, busy := f.inflight[addr]
		if !busy {
			ch = make(chan struct{})
			f.inflight[addr] = ch
			f.mu.Unlock()

			r, cerr := compute()
			f.mu.Lock()
			delete(f.inflight, addr)
			if cerr == nil {
				f.done[addr] = r
			}
			close(ch)
			f.mu.Unlock()
			if cerr != nil {
				return sim.Result{}, true, cerr
			}
			return r, true, nil
		}
		f.mu.Unlock()
		select {
		case <-ctx.Done():
			return sim.Result{}, false, context.Cause(ctx)
		case <-ch:
			// The leader finished (or failed). Loop: either the result
			// is published now, or this waiter runs for leadership.
		}
	}
}
