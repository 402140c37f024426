// Package core implements the paper's contribution: the WL-Cache
// design — a volatile SRAM cache whose dirty-line population is
// bounded by a small DirtyQueue governed by the maxline and waterline
// thresholds — together with the boot-time adaptive threshold
// management of §4 and its dynamic variant.
package core

import "fmt"

// DQPolicy selects how the DirtyQueue picks a dirty line to clean
// (§5.2). This is distinct from the cache replacement policy: the
// selected line is written back and stays in the cache as clean.
type DQPolicy uint8

const (
	// DQFIFO cleans the oldest DirtyQueue entry (paper default).
	DQFIFO DQPolicy = iota
	// DQLRU cleans the least recently used dirty line (requires a
	// search over the queue; costlier in hardware, §6.4).
	DQLRU
)

// String returns "FIFO" or "LRU".
func (p DQPolicy) String() string {
	if p == DQFIFO {
		return "FIFO"
	}
	return "LRU"
}

// dqEntry is one DirtyQueue slot: the memory (line base) address of a
// line that became dirty, plus a unique id so the asynchronous
// write-back ACK can remove exactly the entry it was issued for.
// inflight counts the entry's write-backs still awaiting their ACK:
// +1 when one is issued, -1 when its ACK is dropped; a delivered ACK
// removes the entry with its count.
type dqEntry struct {
	id       uint64
	addr     uint32
	inflight int32
}

// DirtyQueue is the small hardware queue tracking dirty-line
// addresses (§3.1). Entries are kept in insertion order; the head is
// the oldest. Redundant entries for the same line are permitted
// (§5.3) and stale entries for lines that were evicted or already
// checkpointed are tolerated and lazily discarded (§5.4).
type DirtyQueue struct {
	capacity int
	entries  []dqEntry
	nextID   uint64
}

// NewDirtyQueue returns an empty queue with the given capacity
// (the paper's default hardware size is 8 slots).
func NewDirtyQueue(capacity int) *DirtyQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: invalid DirtyQueue capacity %d", capacity))
	}
	return &DirtyQueue{capacity: capacity, entries: make([]dqEntry, 0, capacity)}
}

// Cap returns the hardware capacity.
func (q *DirtyQueue) Cap() int { return q.capacity }

// Len returns the number of occupied slots.
func (q *DirtyQueue) Len() int { return len(q.entries) }

// Full reports whether every slot is occupied.
func (q *DirtyQueue) Full() bool { return len(q.entries) >= q.capacity }

// Push appends an entry for addr and returns its id. It panics when
// full: callers must stall before inserting (§5.1).
func (q *DirtyQueue) Push(addr uint32) uint64 {
	if q.Full() {
		panic("core: DirtyQueue overflow; caller must stall")
	}
	q.nextID++
	q.entries = append(q.entries, dqEntry{id: q.nextID, addr: addr})
	return q.nextID
}

// RemoveID deletes the entry with the given id, reporting whether it
// was present (the write-back ACK path, §5.3 step 4).
func (q *DirtyQueue) RemoveID(id uint64) bool {
	for i := range q.entries {
		if q.entries[i].id == id {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return true
		}
	}
	return false
}

// ackDropped records that the write-back issued for entry id lost its
// ACK: the entry stays, one write-back fewer in flight.
func (q *DirtyQueue) ackDropped(id uint64) {
	for i := range q.entries {
		if q.entries[i].id == id {
			q.entries[i].inflight--
			return
		}
	}
}

// removeAt deletes the entry at index i.
func (q *DirtyQueue) removeAt(i int) {
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
}

// Clear empties the queue (JIT checkpoint or power-on reset).
func (q *DirtyQueue) Clear() { q.entries = q.entries[:0] }
