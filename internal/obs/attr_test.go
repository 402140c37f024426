package obs

import "testing"

func TestAttributePriority(t *testing.T) {
	tr := NewTrace(64)
	tr.Push(Event{TS: 20, Dur: 30, Kind: KPortWait, A: 0x40, F: float64(portFlagWrite | portFlagAsync)})
	tr.Push(Event{TS: 100, Dur: 200, Kind: KStall, A: 0x80})
	tr.Push(Event{TS: 200, Dur: 300, Kind: KPortWait, A: 0x80, F: float64(portFlagWrite)})
	tr.Push(Event{TS: 450, Dur: 100, Kind: KCkpt})
	tr.Push(Event{TS: 600, Dur: 200, Kind: KOff})
	tr.Push(Event{TS: 650, Kind: KAdapt, A: 6, B: 7})          // instantaneous
	tr.Push(Event{TS: 1005, Dur: 10, Kind: KCkpt, B: 0, F: 1}) // shutdown flush, TS >= total
	l := AttributeTrace(tr, RunMeta{Design: "wl"}, 1000, 1)

	// Overlap resolution: stall beats port-wait on [200,300); checkpoint
	// beats port-wait on [450,500); off owns [600,800); the rest is
	// compute. Exact partition, no double counting, and the shutdown
	// flush after the total is outside the ledger.
	want := map[Category]int64{
		CatCompute:    350,
		CatStall:      200,
		CatPortWait:   150,
		CatCheckpoint: 100,
		CatOff:        200,
		CatRestore:    0,
	}
	for c, w := range want {
		if got := l.CatPS[c]; got != w {
			t.Errorf("CatPS[%s] = %d, want %d", c, got, w)
		}
	}
	if l.SumPS() != 1000 || l.Coverage() != 1 {
		t.Fatalf("sum %d coverage %g, want 1000 and 1", l.SumPS(), l.Coverage())
	}
	if l.HiddenPortWaitPS != 30 {
		t.Fatalf("hidden port wait %d, want 30 (async never enters the ledger)", l.HiddenPortWaitPS)
	}
}

// A ring smaller than the event count keeps the exact invariant: the
// timeline before the first retained event is an Unknown prefix.
func TestAttributeTruncatedRing(t *testing.T) {
	tr := NewTrace(4)
	// 3 write-back pairs + a stall + the power chain: 10 events into a
	// 4-slot ring drops the first 6 (all the issues and early ACKs).
	for i := int64(0); i < 3; i++ {
		tr.Push(Event{TS: 100 * i, Kind: KWBIssue, A: 0x40})
		tr.Push(Event{TS: 100 * i, Dur: 50, Kind: KWBAck, A: 0x40})
	}
	tr.Push(Event{TS: 400, Dur: 25, Kind: KStall, A: 0x80})
	tr.Push(Event{TS: 500, Kind: KPowerFail, F: 2.9})
	tr.Push(Event{TS: 500, Dur: 50, Kind: KCkpt})
	tr.Push(Event{TS: 600, Dur: 100, Kind: KOff})

	l := AttributeTrace(tr, RunMeta{}, 1000, 0)
	if l.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", l.Dropped)
	}
	if l.SumPS() != 1000 {
		t.Fatalf("truncated ledger sum %d, want 1000", l.SumPS())
	}
	if l.UnknownPS != 400 || l.Coverage() != 0.6 {
		t.Fatalf("truncated ledger unknown=%d coverage=%g, want 400 and 0.6", l.UnknownPS, l.Coverage())
	}
	if l.CatPS[CatStall] != 25 || l.CatPS[CatCheckpoint] != 50 || l.CatPS[CatOff] != 100 || l.CatPS[CatCompute] != 425 {
		t.Fatalf("truncated ledger categories %v", l.CatPS)
	}
}
