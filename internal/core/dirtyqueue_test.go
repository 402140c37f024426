package core

import (
	"testing"
	"testing/quick"
)

func TestDirtyQueueBasics(t *testing.T) {
	q := NewDirtyQueue(4)
	if q.Cap() != 4 || q.Len() != 0 || q.Full() {
		t.Fatal("fresh queue state wrong")
	}
	id1 := q.Push(0x100)
	id2 := q.Push(0x200)
	if id1 == id2 {
		t.Fatal("ids must be unique")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	ents := q.entries
	if ents[0].addr != 0x100 || ents[1].addr != 0x200 {
		t.Fatal("entries out of insertion order")
	}
}

func TestDirtyQueueRemoveID(t *testing.T) {
	q := NewDirtyQueue(4)
	a := q.Push(1 << 6)
	b := q.Push(2 << 6)
	c := q.Push(3 << 6)
	if !q.RemoveID(b) {
		t.Fatal("RemoveID failed for present id")
	}
	if q.RemoveID(b) {
		t.Fatal("RemoveID succeeded twice")
	}
	ents := q.entries
	if len(ents) != 2 || ents[0].id != a || ents[1].id != c {
		t.Fatal("wrong entries after middle removal")
	}
}

func TestDirtyQueueRedundantEntriesAllowed(t *testing.T) {
	// §5.3: the same address may appear more than once.
	q := NewDirtyQueue(4)
	q.Push(0x100)
	q.Push(0x100)
	if q.Len() != 2 {
		t.Fatal("redundant insertion rejected")
	}
}

func TestDirtyQueueOverflowPanics(t *testing.T) {
	q := NewDirtyQueue(2)
	q.Push(0)
	q.Push(64)
	defer func() {
		if recover() == nil {
			t.Fatal("push into a full queue must panic (callers stall first)")
		}
	}()
	q.Push(128)
}

func TestDirtyQueueClear(t *testing.T) {
	q := NewDirtyQueue(3)
	q.Push(0)
	q.Push(64)
	q.Clear()
	if q.Len() != 0 || q.Full() {
		t.Fatal("Clear did not empty the queue")
	}
	// ids keep growing after Clear (no reuse).
	id := q.Push(128)
	if id < 3 {
		t.Fatalf("id %d reused after clear", id)
	}
}

func TestNewDirtyQueueRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewDirtyQueue(0)
}

// Property: Len is pushes minus successful removals; order preserved.
func TestDirtyQueueQuickFIFOOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewDirtyQueue(64)
		var live []uint64
		for _, op := range ops {
			if op%3 != 0 && !q.Full() {
				live = append(live, q.Push(uint32(op)<<6))
			} else if len(live) > 0 {
				victim := live[int(op)%len(live)]
				if !q.RemoveID(victim) {
					return false
				}
				for i, id := range live {
					if id == victim {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			if q.Len() != len(live) {
				return false
			}
		}
		// Remaining entries must be the live ids in insertion order.
		ents := q.entries
		for i, e := range ents {
			if e.id != live[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
