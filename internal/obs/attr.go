package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
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
// resolve by priority: Off > Restore > Checkpoint > Adapt > Stall >
// PortWait, and whatever no window covers is Compute. Asynchronous
// port waits are *not* a category — the core kept executing — and are
// reported separately as hidden (overlapped) port-wait time.

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
	CatAdapt
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
	case CatAdapt:
		return "adapt"
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

// catPriority orders overlapping windows: lower wins. Compute has no
// windows (it is the residual), so it never competes.
func catPriority(c Category) int {
	switch c {
	case CatOff:
		return 0
	case CatRestore:
		return 1
	case CatCheckpoint:
		return 2
	case CatAdapt:
		return 3
	case CatStall:
		return 4
	case CatPortWait:
		return 5
	}
	return 6
}

// Hotspot is the per-store-PC bucket: stall and synchronous port-wait
// time charged to one program site.
type Hotspot struct {
	PC         uint64
	Site       string
	StallPS    int64
	PortWaitPS int64
	Events     int
}

// TotalPS is the hotspot's combined attributed time.
func (h Hotspot) TotalPS() int64 { return h.StallPS + h.PortWaitPS }

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

	Pushed   uint64
	Dropped  uint64
	Hotspots []Hotspot
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

// attrWindow is one candidate interval in the sweep.
type attrWindow struct {
	start, end int64
	cat        Category
	pc         uint64
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

	// Collect category windows, clamped to [lo, totalPS).
	windows := make([]attrWindow, 0, len(evs))
	addWin := func(w attrWindow) {
		if w.start < lo {
			w.start = lo
		}
		if totalPS > 0 && w.end > totalPS {
			w.end = totalPS
		}
		if w.end > w.start {
			windows = append(windows, w)
		}
	}
	hot := map[uint64]*Hotspot{}
	touch := func(pc uint64) {
		h := hot[pc]
		if h == nil {
			h = &Hotspot{PC: pc}
			hot[pc] = h
		}
		h.Events++
	}
	for _, e := range evs {
		if totalPS > 0 && e.TS >= totalPS {
			// The shutdown flush runs after ExecTime closed; its events
			// are outside the ledger's domain.
			continue
		}
		switch e.Kind {
		case KStall:
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatStall, uint64(e.B)})
			touch(uint64(e.B))
		case KPortWait:
			if int64(e.F)&portFlagAsync != 0 {
				l.HiddenPortWaitPS += e.Dur
				continue
			}
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatPortWait, uint64(e.B)})
			touch(uint64(e.B))
		case KCkpt:
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatCheckpoint, 0})
		case KRestore:
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatRestore, 0})
		case KOff:
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatOff, 0})
		case KAdapt:
			// Adaptation is instantaneous in this model (Dur == 0), so
			// CatAdapt is structurally zero today; the category exists
			// so a future timed reconfiguration lands in the ledger.
			addWin(attrWindow{e.TS, e.TS + e.Dur, CatAdapt, 0})
		}
	}

	l.sweep(windows, lo, totalPS, hot)

	l.Hotspots = make([]Hotspot, 0, len(hot))
	for _, h := range hot {
		h.Site = ResolvePC(h.PC)
		l.Hotspots = append(l.Hotspots, *h)
	}
	sort.Slice(l.Hotspots, func(i, j int) bool {
		a, b := l.Hotspots[i], l.Hotspots[j]
		if a.TotalPS() != b.TotalPS() {
			return a.TotalPS() > b.TotalPS()
		}
		return a.PC < b.PC
	})
	return l
}

// sweep runs the boundary sweep: for every elementary interval of
// [lo, totalPS) the highest-priority active window wins; gaps are
// Compute. Hotspot time follows the winning stall/port-wait window.
func (l *Ledger) sweep(windows []attrWindow, lo, totalPS int64, hot map[uint64]*Hotspot) {
	if totalPS <= lo {
		return
	}
	type boundary struct {
		pos  int64
		open bool
		win  int
	}
	bs := make([]boundary, 0, 2*len(windows))
	for i, w := range windows {
		bs = append(bs, boundary{w.start, true, i}, boundary{w.end, false, i})
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].pos != bs[j].pos {
			return bs[i].pos < bs[j].pos
		}
		// Closes before opens at the same position: zero-length overlap
		// is no overlap.
		return !bs[i].open && bs[j].open
	})

	// active holds, per category, the indices of currently-open
	// windows; concurrency within a category is tiny (a handful of
	// nested waits at most), so linear removal is fine.
	var active [numCategories][]int
	charge := func(from, to int64) {
		if to <= from {
			return
		}
		dur := to - from
		for _, c := range []Category{CatOff, CatRestore, CatCheckpoint, CatAdapt, CatStall, CatPortWait} {
			ws := active[c]
			if len(ws) == 0 {
				continue
			}
			l.CatPS[c] += dur
			if c == CatStall || c == CatPortWait {
				// Charge the most recently opened window's site.
				w := windows[ws[len(ws)-1]]
				if h := hot[w.pc]; h != nil {
					if c == CatStall {
						h.StallPS += dur
					} else {
						h.PortWaitPS += dur
					}
				}
			}
			return
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
			b := bs[i]
			c := windows[b.win].cat
			if b.open {
				active[c] = append(active[c], b.win)
			} else {
				for k, wi := range active[c] {
					if wi == b.win {
						active[c] = append(active[c][:k], active[c][k+1:]...)
						break
					}
				}
			}
		}
	}
	charge(cursor, totalPS)
}

// ResolvePC renders a program counter captured by runtime.Callers as
// "function:line"; unresolvable values (synthetic traces, stripped
// frames) render as "pc=0x…" so reports stay stable.
func ResolvePC(pc uint64) string {
	if pc == 0 {
		return "unknown"
	}
	if fn := runtime.FuncForPC(uintptr(pc)); fn != nil {
		_, line := fn.FileLine(uintptr(pc))
		name := fn.Name()
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		return fmt.Sprintf("%s:%d", name, line)
	}
	return fmt.Sprintf("pc=%#x", pc)
}

// --- folded-stack (flamegraph) rendering ---

// Folded renders the ledger in folded-stack format — one
// "frame;frame weight" line per stack, weights in cycles (ps when
// CyclePS is unset) — loadable by standard flamegraph tooling.
// Stall and port-wait time split per program site under their
// category frame; everything else is a single-frame stack. Lines are
// sorted for deterministic output.
func (l *Ledger) Folded() string {
	var lines []string
	emit := func(stack string, ps int64) {
		if w := l.Cycles(ps); w > 0 {
			lines = append(lines, fmt.Sprintf("%s %d", stack, w))
		}
	}
	for _, c := range Categories() {
		switch c {
		case CatStall, CatPortWait:
			rem := l.CatPS[c]
			for _, h := range l.Hotspots {
				ps := h.StallPS
				if c == CatPortWait {
					ps = h.PortWaitPS
				}
				if ps > 0 {
					emit(c.String()+";"+h.Site, ps)
					rem -= ps
				}
			}
			emit(c.String(), rem)
		default:
			emit(c.String(), l.CatPS[c])
		}
	}
	emit("unknown", l.UnknownPS)
	sort.Strings(lines)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}
