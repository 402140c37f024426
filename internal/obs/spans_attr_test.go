package obs

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// pushSpanFixture records the canonical causal chain: one async
// write-back whose ACK releases both a maxline stall and a sync port
// wait, followed by one complete outage episode, followed by the
// post-ExecTime shutdown flush that must be ignored.
func pushSpanFixture(tr *Trace) (totalPS int64) {
	tr.Push(Event{TS: 100, Kind: KWBIssue, A: 0x40})
	tr.Push(Event{TS: 100, Dur: 20, Kind: KPortWait, A: 0x40, B: 7, F: float64(portFlagWrite | portFlagAsync)})
	tr.Push(Event{TS: 100, Dur: 150, Kind: KWBAck, A: 0x40})
	tr.Push(Event{TS: 200, Dur: 50, Kind: KStall, A: 0x80, B: 7})
	tr.Push(Event{TS: 240, Dur: 10, Kind: KPortWait, A: 0x200, B: 9, F: float64(portFlagWrite)})
	tr.Push(Event{TS: 300, Kind: KPowerFail, F: 2.9})
	tr.Push(Event{TS: 300, Dur: 100, Kind: KCkpt, B: 5, F: 2000})
	tr.Push(Event{TS: 400, Dur: 500, Kind: KOff})
	tr.Push(Event{TS: 900, Dur: 100, Kind: KRestore, F: 50})
	tr.Push(Event{TS: 1205, Dur: 10, Kind: KCkpt, B: 0, F: 1}) // shutdown flush, TS >= total
	return 1200
}

func TestBuildSpansCorrelatesCausalChain(t *testing.T) {
	tr := NewTrace(64)
	total := pushSpanFixture(tr)
	set := BuildSpans(tr, RunMeta{Design: "wl"}, total)

	if set.Orphans != 0 {
		t.Fatalf("fixture produced %d orphans, want 0", set.Orphans)
	}
	if c := set.Coverage(); c != 1 {
		t.Fatalf("undropped ring coverage %g, want 1", c)
	}
	byKind := map[SpanKind]int{}
	for _, sp := range set.Spans {
		byKind[sp.Kind]++
	}
	want := map[SpanKind]int{SpanWriteback: 1, SpanStall: 1, SpanPortWait: 2,
		SpanCheckpoint: 1, SpanOff: 1, SpanRestore: 1, SpanOutage: 1}
	for k, n := range want {
		if byKind[k] != n {
			t.Fatalf("got %d %s spans, want %d (all: %v)", byKind[k], k, n, byKind)
		}
	}

	wb := set.ByKind(SpanWriteback)[0]
	if wb.Start != 100 || wb.End != 250 {
		t.Fatalf("writeback span [%d,%d], want [100,250]", wb.Start, wb.End)
	}
	stall := set.ByKind(SpanStall)[0]
	if stall.Cause != wb.ID {
		t.Fatalf("stall cause #%d, want writeback #%d", stall.Cause, wb.ID)
	}
	if stall.PC != 7 || stall.Addr != 0x80 {
		t.Fatalf("stall lost correlation keys: pc=%#x addr=%#x", stall.PC, stall.Addr)
	}
	for _, pw := range set.ByKind(SpanPortWait) {
		if pw.Async {
			if pw.Parent != wb.ID {
				t.Fatalf("async port wait parent #%d, want its writeback #%d", pw.Parent, wb.ID)
			}
		} else if pw.Cause != wb.ID {
			t.Fatalf("sync port wait cause #%d, want the port-holding writeback #%d", pw.Cause, wb.ID)
		}
	}
	outage := set.ByKind(SpanOutage)[0]
	if outage.Start != 300 || outage.End != 1000 {
		t.Fatalf("outage span [%d,%d], want [300,1000] (close at restore end)", outage.Start, outage.End)
	}
	for _, k := range []SpanKind{SpanCheckpoint, SpanOff, SpanRestore} {
		if sp := set.ByKind(k)[0]; sp.Parent != outage.ID {
			t.Fatalf("%s parent #%d, want outage #%d", k, sp.Parent, outage.ID)
		}
	}
	// The shutdown-flush checkpoint (TS >= totalPS) must not appear.
	if byKind[SpanCheckpoint] != 1 {
		t.Fatalf("post-ExecTime checkpoint leaked into the span set")
	}
	// Rendering must resolve links without panicking.
	if s := set.Format(stall); !strings.Contains(s, "cause=#") {
		t.Fatalf("formatted stall lost its cause link: %s", s)
	}
	var buf bytes.Buffer
	if err := set.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"writeback"`) {
		t.Fatalf("JSONL export missing symbolic kind:\n%s", buf.String())
	}
}

// A ring smaller than the event count must degrade gracefully: no
// panics, coverage below 100%, unacked/unmatched halves surfacing as
// orphans or open spans — never wrong links.
func TestBuildSpansTruncatedRing(t *testing.T) {
	tr := NewTrace(4)
	// 3 write-back pairs + a stall + the power chain: 10 events into a
	// 4-slot ring drops the first 6 (all the issues and early ACKs).
	for i := int64(0); i < 3; i++ {
		tr.Push(Event{TS: 100 * i, Kind: KWBIssue, A: 0x40})
		tr.Push(Event{TS: 100 * i, Dur: 50, Kind: KWBAck, A: 0x40})
	}
	tr.Push(Event{TS: 400, Dur: 25, Kind: KStall, A: 0x80, B: 3})
	tr.Push(Event{TS: 500, Kind: KPowerFail, F: 2.9})
	tr.Push(Event{TS: 500, Dur: 50, Kind: KCkpt})
	tr.Push(Event{TS: 600, Dur: 100, Kind: KOff})
	set := BuildSpans(tr, RunMeta{}, 1000)

	if set.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", set.Dropped)
	}
	if c := set.Coverage(); c >= 1 || c <= 0 {
		t.Fatalf("truncated coverage %g, want in (0,1)", c)
	}
	// The stall's releasing ACK was overwritten: it must be an orphan,
	// not mislinked.
	stall := set.ByKind(SpanStall)[0]
	if stall.Cause != -1 {
		t.Fatalf("truncated stall got cause #%d, want -1", stall.Cause)
	}
	if set.Orphans == 0 {
		t.Fatal("truncation produced no orphan count")
	}

	// The ledger over the same truncated ring: exact invariant with an
	// Unknown prefix.
	l := AttributeTrace(tr, RunMeta{}, 1000, 0)
	if l.SumPS() != 1000 {
		t.Fatalf("truncated ledger sum %d, want 1000", l.SumPS())
	}
	if l.UnknownPS == 0 || l.Coverage() >= 1 {
		t.Fatalf("truncated ledger unknown=%d coverage=%g, want lossy", l.UnknownPS, l.Coverage())
	}
}

func TestAttributePriorityAndHotspots(t *testing.T) {
	tr := NewTrace(64)
	tr.Push(Event{TS: 20, Dur: 30, Kind: KPortWait, A: 0x40, B: 7, F: float64(portFlagWrite | portFlagAsync)})
	tr.Push(Event{TS: 100, Dur: 200, Kind: KStall, A: 0x80, B: 7})
	tr.Push(Event{TS: 200, Dur: 300, Kind: KPortWait, A: 0x80, B: 7, F: float64(portFlagWrite)})
	tr.Push(Event{TS: 450, Dur: 100, Kind: KCkpt})
	tr.Push(Event{TS: 600, Dur: 200, Kind: KOff})
	tr.Push(Event{TS: 650, Kind: KAdapt, A: 6, B: 7}) // instantaneous
	l := AttributeTrace(tr, RunMeta{Design: "wl"}, 1000, 1)

	// Overlap resolution: stall beats port-wait on [200,300); checkpoint
	// beats port-wait on [450,500); off owns [600,800); the rest is
	// compute. Exact partition, no double counting.
	want := map[Category]int64{
		CatCompute:    350,
		CatStall:      200,
		CatPortWait:   150,
		CatCheckpoint: 100,
		CatOff:        200,
		CatRestore:    0,
		CatAdapt:      0,
	}
	for c, w := range want {
		if got := l.CatPS[c]; got != w {
			t.Errorf("CatPS[%s] = %d, want %d", c, got, w)
		}
	}
	if l.SumPS() != 1000 {
		t.Fatalf("sum %d != total 1000", l.SumPS())
	}
	if l.HiddenPortWaitPS != 30 {
		t.Fatalf("hidden port wait %d, want 30 (async never enters the ledger)", l.HiddenPortWaitPS)
	}
	if len(l.Hotspots) != 1 {
		t.Fatalf("hotspots: %+v, want one (pc=7)", l.Hotspots)
	}
	h := l.Hotspots[0]
	// Events counts only ledger-charged (sync) events; the async wait
	// contributed no attributed time, so it does not count.
	if h.PC != 7 || h.StallPS != 200 || h.PortWaitPS != 150 || h.Events != 2 {
		t.Fatalf("hotspot %+v, want pc=7 stall=200 portwait=150 events=2", h)
	}
	if h.Site != "pc=0x7" {
		t.Fatalf("unresolvable PC rendered %q, want pc=0x7", h.Site)
	}
}

func TestLedgerCategoriesAndFolded(t *testing.T) {
	tr := NewTrace(64)
	tr.Push(Event{TS: 100, Dur: 200, Kind: KStall, A: 0x80, B: 7})
	tr.Push(Event{TS: 600, Dur: 200, Kind: KOff})
	l := AttributeTrace(tr, RunMeta{Design: "wl", Workload: "sha", Trace: "tr1"}, 1000, 1)

	if l.CatPS[CatStall] != 200 || l.CatPS[CatOff] != 200 || l.CatPS[CatCompute] != 600 {
		t.Fatalf("categories wrong: %v", l.CatPS)
	}
	if l.Coverage() != 1 {
		t.Fatalf("coverage %g, want 1", l.Coverage())
	}

	folded := l.Folded()
	for _, wantLine := range []string{"compute 600", "maxline-stall;pc=0x7 200", "off 200"} {
		if !strings.Contains(folded, wantLine) {
			t.Fatalf("folded output missing %q:\n%s", wantLine, folded)
		}
	}
	if strings.Contains(folded, "adapt") || strings.Contains(folded, "unknown") {
		t.Fatalf("folded output emitted zero-weight stacks:\n%s", folded)
	}
	// Weights must sum back to the total (cyclePS=1: cycles == ps).
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(folded), "\n") {
		i := strings.LastIndexByte(line, ' ')
		w, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad folded line %q: %v", line, err)
		}
		sum += w
	}
	if sum != 1000 {
		t.Fatalf("folded weights sum to %d, want 1000", sum)
	}
}

// The folded-stack format is consumed by external tooling, so its
// exact shape is pinned by a golden file. Synthetic PCs render as
// pc=0x… and keep the golden stable across Go versions.
func TestFoldedGolden(t *testing.T) {
	tr := NewTrace(64)
	tr.Push(Event{TS: 100, Dur: 200, Kind: KStall, A: 0x80, B: 7})
	tr.Push(Event{TS: 600, Dur: 200, Kind: KOff})
	l := AttributeTrace(tr, RunMeta{Design: "wl"}, 1000, 1)

	want, err := os.ReadFile("testdata/folded_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Folded(); got != string(want) {
		t.Fatalf("folded output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
