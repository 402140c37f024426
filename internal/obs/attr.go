package obs

import (
	"fmt"
	"sort"
)

// Cycle attribution (DESIGN.md §10): a ledger that charges every
// simulated picosecond of a run to exactly one category. The paper's
// overlap claim — asynchronous write-backs hide NVM latency behind
// execution — is only checkable against an accounting that never
// loses or double-counts time, so the ledger is built as an interval
// sweep over the event timeline with a strict priority order and the
// invariant
//
//	sum(categories) + unknown == total
//
// holding exactly (test-enforced per feasible design). Overlapping
// windows (a port wait inside a stall, a checkpoint inside an outage)
// resolve by priority: Off > Restore > Checkpoint > Stall > PortWait,
// and whatever no window covers is Compute. Asynchronous port waits
// are *not* a category — the core kept executing — and are reported
// separately as hidden (overlapped) port-wait time.

// Category is one cycle-ledger bucket.
type Category uint8

// The attribution categories, in report order.
const (
	CatCompute Category = iota
	CatStall
	CatPortWait
	CatCheckpoint
	CatRestore
	CatOff
	numCategories
)

// String names the category (also its manifest counter,
// attr.<name>_ps).
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatStall:
		return "maxline-stall"
	case CatPortWait:
		return "port-wait"
	case CatCheckpoint:
		return "checkpoint"
	case CatRestore:
		return "restore"
	case CatOff:
		return "off"
	}
	return fmt.Sprintf("category(%d)", c)
}

// Categories returns all categories in report order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Ledger is the cycle attribution of one run.
type Ledger struct {
	Meta    RunMeta
	TotalPS int64 // the simulator's total (Result.ExecTime)
	CyclePS int64 // core cycle time, for ps → cycle conversion (0: report ps)

	// CatPS is the per-category attribution; UnknownPS is the prefix
	// of the timeline whose events the ring overwrote. The invariant
	// sum(CatPS) + UnknownPS == TotalPS always holds.
	CatPS     [numCategories]int64
	UnknownPS int64

	// HiddenPortWaitPS is asynchronous (overlapped) port-wait time: not
	// part of the ledger — execution continued — but the direct measure
	// of how much NVM latency the async write-back path hid.
	HiddenPortWaitPS int64

	Pushed  uint64
	Dropped uint64
}

// Coverage is the attributed fraction of the timeline: 1 when the ring
// kept every event, less when UnknownPS > 0.
func (l *Ledger) Coverage() float64 {
	if l.TotalPS <= 0 {
		return 1
	}
	return float64(l.TotalPS-l.UnknownPS) / float64(l.TotalPS)
}

// SumPS returns sum(CatPS) + UnknownPS; the invariant is
// l.SumPS() == l.TotalPS.
func (l *Ledger) SumPS() int64 {
	s := l.UnknownPS
	for _, v := range l.CatPS {
		s += v
	}
	return s
}

// Cycles converts attributed picoseconds to core cycles (identity when
// CyclePS is unset).
func (l *Ledger) Cycles(ps int64) int64 {
	if l.CyclePS <= 0 {
		return ps
	}
	return ps / l.CyclePS
}

// Attribute builds the cycle ledger for the recorder's trace. totalPS
// is the simulator total (Result.ExecTime), cyclePS the core cycle
// time. Nil-safe: a nil recorder yields a zero ledger.
func (r *Recorder) Attribute(totalPS, cyclePS int64) Ledger {
	if r == nil {
		return Ledger{TotalPS: totalPS, CyclePS: cyclePS, CatPS: [numCategories]int64{CatCompute: totalPS}}
	}
	return AttributeTrace(r.trace, r.Meta, totalPS, cyclePS)
}

// boundary opens or closes one category window in the sweep.
type boundary struct {
	pos  int64
	open bool
	cat  Category
}

// AttributeTrace attributes every picosecond of [0, totalPS) to one
// category by a priority interval sweep over the trace events. When
// the ring dropped events, the timeline before the first retained
// event is Unknown and only the tail is attributed; coverage reports
// the attributed fraction. Never panics on truncated or empty traces.
func AttributeTrace(tr *Trace, meta RunMeta, totalPS, cyclePS int64) Ledger {
	l := Ledger{Meta: meta, TotalPS: totalPS, CyclePS: cyclePS,
		Pushed: tr.Pushed(), Dropped: tr.Dropped()}
	evs := tr.Events()

	// The unattributable prefix: with drops, events before the first
	// retained one are gone, so nothing before it can be explained.
	lo := int64(0)
	if l.Dropped > 0 && len(evs) > 0 {
		lo = evs[0].TS
		if lo < 0 {
			lo = 0
		}
		if lo > totalPS {
			lo = totalPS
		}
	}
	l.UnknownPS = lo

	// Collect category windows, clamped to [lo, totalPS), as their
	// boundaries.
	var bs []boundary
	addWin := func(start, end int64, c Category) {
		start = max(start, lo)
		if totalPS > 0 {
			end = min(end, totalPS)
		}
		if end > start {
			bs = append(bs, boundary{start, true, c}, boundary{end, false, c})
		}
	}
	for _, e := range evs {
		if totalPS > 0 && e.TS >= totalPS {
			// The shutdown flush runs after ExecTime closed; its events
			// are outside the ledger's domain.
			continue
		}
		switch e.Kind {
		case KStall:
			addWin(e.TS, e.TS+e.Dur, CatStall)
		case KPortWait:
			if int64(e.F)&portFlagAsync != 0 {
				l.HiddenPortWaitPS += e.Dur
				continue
			}
			addWin(e.TS, e.TS+e.Dur, CatPortWait)
		case KCkpt:
			addWin(e.TS, e.TS+e.Dur, CatCheckpoint)
		case KRestore:
			addWin(e.TS, e.TS+e.Dur, CatRestore)
		case KOff:
			addWin(e.TS, e.TS+e.Dur, CatOff)
		}
	}

	l.sweep(bs, lo, totalPS)
	return l
}

// sweep runs the boundary sweep: for every elementary interval of
// [lo, totalPS) the highest-priority open window wins; gaps are
// Compute.
func (l *Ledger) sweep(bs []boundary, lo, totalPS int64) {
	if totalPS <= lo {
		return
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].pos != bs[j].pos {
			return bs[i].pos < bs[j].pos
		}
		// Closes before opens at the same position: zero-length overlap
		// is no overlap.
		return !bs[i].open && bs[j].open
	})

	// open counts, per category, the windows open at the cursor.
	var open [numCategories]int
	charge := func(from, to int64) {
		if to <= from {
			return
		}
		dur := to - from
		for _, c := range []Category{CatOff, CatRestore, CatCheckpoint, CatStall, CatPortWait} {
			if open[c] > 0 {
				l.CatPS[c] += dur
				return
			}
		}
		l.CatPS[CatCompute] += dur
	}

	cursor := lo
	for i := 0; i < len(bs); {
		pos := bs[i].pos
		charge(cursor, min(pos, totalPS))
		if pos > cursor {
			cursor = min(pos, totalPS)
		}
		for ; i < len(bs) && bs[i].pos == pos; i++ {
			if bs[i].open {
				open[bs[i].cat]++
			} else {
				open[bs[i].cat]--
			}
		}
	}
	charge(cursor, totalPS)
}
