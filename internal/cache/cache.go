// Package cache implements the set-associative cache array shared by
// every cache design in this repository: a value-accurate tag+data
// array with configurable geometry and FIFO or LRU replacement.
//
// The array is policy-free with respect to *write* handling: designs
// (write-through, write-back, WL-Cache, ...) decide when lines become
// dirty and when they are written back. The array only tracks state
// and picks victims.
package cache

import "fmt"

// ReplacementPolicy selects how a victim way is chosen within a set.
type ReplacementPolicy uint8

const (
	// LRU evicts the least recently used line (paper default, §6.1).
	LRU ReplacementPolicy = iota
	// FIFO evicts the oldest-filled line (§6.5 sensitivity).
	FIFO
)

// String returns "LRU" or "FIFO".
func (p ReplacementPolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "FIFO"
}

// Geometry describes a cache organization.
type Geometry struct {
	SizeBytes int // total capacity
	Ways      int // associativity (1 = direct mapped)
	LineBytes int // block size
}

// DefaultGeometry is the paper's L1D: 8 KB, 2-way, 64 B lines.
func DefaultGeometry() Geometry {
	return Geometry{SizeBytes: 8 * 1024, Ways: 2, LineBytes: 64}
}

// Sets returns the number of sets.
func (g Geometry) Sets() int { return g.SizeBytes / (g.Ways * g.LineBytes) }

// LineWords returns the number of 32-bit words per line.
func (g Geometry) LineWords() int { return g.LineBytes / 4 }

// Lines returns the total number of lines.
func (g Geometry) Lines() int { return g.SizeBytes / g.LineBytes }

// Validate reports a configuration error, if any.
func (g Geometry) Validate() error {
	switch {
	case g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", g)
	case g.LineBytes%4 != 0:
		return fmt.Errorf("cache: line size %d not a multiple of the word size", g.LineBytes)
	case g.SizeBytes%(g.Ways*g.LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", g.SizeBytes, g.Ways, g.LineBytes)
	case (g.Sets() & (g.Sets() - 1)) != 0:
		return fmt.Errorf("cache: set count %d not a power of two", g.Sets())
	case (g.LineBytes & (g.LineBytes - 1)) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", g.LineBytes)
	}
	return nil
}

// Line is one cache line: tag+state metadata plus a value-accurate
// copy of the line's data.
type Line struct {
	Tag     uint32
	Valid   bool
	Dirty   bool
	Data    []uint32
	lastUse uint64 // LRU timestamp
	fillSeq uint64 // FIFO timestamp
}

// LastUse returns the line's logical last-access timestamp (monotonic
// per array); used by DirtyQueue LRU victim selection.
func (l *Line) LastUse() uint64 { return l.lastUse }

// Array is the tag+data array.
type Array struct {
	geo    Geometry
	policy ReplacementPolicy
	sets   [][]Line
	clock  uint64 // logical access counter for LRU/FIFO ordering

	setShift uint32
	setMask  uint32
	offMask  uint32
	setBits  uint32 // trailingSetBits(setMask), precomputed
	tagShift uint32 // setShift + setBits, precomputed
}

// NewArray builds an empty cache array. It panics on invalid geometry
// (a configuration bug, not a runtime condition).
func NewArray(g Geometry, p ReplacementPolicy) *Array {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	a := &Array{geo: g, policy: p}
	// One backing slab for every line's data (2 allocations for the
	// whole array instead of Lines()+Sets()): better locality and far
	// less allocator work when experiments construct designs per cell.
	lines := make([]Line, g.Lines())
	slab := make([]uint32, g.Lines()*g.LineWords())
	for i := range lines {
		lines[i].Data = slab[i*g.LineWords() : (i+1)*g.LineWords() : (i+1)*g.LineWords()]
	}
	a.sets = make([][]Line, g.Sets())
	for i := range a.sets {
		a.sets[i] = lines[i*g.Ways : (i+1)*g.Ways : (i+1)*g.Ways]
	}
	a.offMask = uint32(g.LineBytes - 1)
	a.setShift = uint32(log2(g.LineBytes))
	a.setMask = uint32(g.Sets() - 1)
	a.setBits = trailingSetBits(a.setMask)
	a.tagShift = a.setShift + a.setBits
	return a
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// LineAddr returns the base byte address of the line containing addr.
func (a *Array) LineAddr(addr uint32) uint32 { return addr &^ a.offMask }

// setIndex returns the set index for addr.
func (a *Array) setIndex(addr uint32) uint32 { return (addr >> a.setShift) & a.setMask }

// tagOf returns the tag for addr.
func (a *Array) tagOf(addr uint32) uint32 { return addr >> a.tagShift }

// Lookup finds the line containing addr. It returns the line and true
// on a hit. Lookup does not touch replacement state; call Touch on a
// hit that should refresh recency.
func (a *Array) Lookup(addr uint32) (*Line, bool) {
	set := a.sets[a.setIndex(addr)]
	tag := a.tagOf(addr)
	for w := range set {
		if set[w].Valid && set[w].Tag == tag {
			return &set[w], true
		}
	}
	return nil, false
}

// Touch refreshes the recency of the line containing addr (LRU state).
func (a *Array) Touch(ln *Line) {
	a.clock++
	ln.lastUse = a.clock
}

// Victim returns the line that would be replaced to make room for
// addr: an invalid way if present, otherwise the policy's choice.
func (a *Array) Victim(addr uint32) *Line {
	set := a.sets[a.setIndex(addr)]
	for w := range set {
		if !set[w].Valid {
			return &set[w]
		}
	}
	best := &set[0]
	for w := 1; w < len(set); w++ {
		ln := &set[w]
		switch a.policy {
		case LRU:
			if ln.lastUse < best.lastUse {
				best = ln
			}
		case FIFO:
			if ln.fillSeq < best.fillSeq {
				best = ln
			}
		}
	}
	return best
}

// Fill installs the line for addr into victim ln, marking it
// valid+clean and resetting replacement state; Lookup(addr) then finds
// ln. ln.Data is left as it was: the caller reads the line from memory
// straight into it. Filling an address that is already cached in a
// different way is a caller bug (callers must Lookup first) and panics.
func (a *Array) Fill(ln *Line, addr uint32) {
	tag := a.tagOf(addr)
	set := a.sets[a.setIndex(addr)]
	for w := range set {
		if other := &set[w]; other != ln && other.Valid && other.Tag == tag {
			panic("cache: Fill would duplicate a resident line; Lookup before filling")
		}
	}
	a.clock++
	ln.Tag = tag
	ln.Valid = true
	ln.Dirty = false
	ln.lastUse = a.clock
	ln.fillSeq = a.clock
}

// VictimAddr reconstructs the base byte address of a valid line given
// the address it shares a set with. It panics if ln is invalid.
func (a *Array) VictimAddr(ln *Line, likeAddr uint32) uint32 {
	if !ln.Valid {
		panic("cache: VictimAddr on invalid line")
	}
	return ln.Tag<<a.tagShift | a.setIndex(likeAddr)<<a.setShift
}

// WordIndex returns the word offset of addr within its line.
func (a *Array) WordIndex(addr uint32) int { return int(addr&a.offMask) >> 2 }

// InvalidateAll drops every line (volatile cache losing power).
func (a *Array) InvalidateAll() {
	for s := range a.sets {
		for w := range a.sets[s] {
			a.sets[s][w].Valid = false
			a.sets[s][w].Dirty = false
		}
	}
}

// DirtyCount returns the number of valid dirty lines (O(lines); used by
// invariant checks, tests and checkpoints, not on the access path).
func (a *Array) DirtyCount() int {
	n := 0
	for s := range a.sets {
		for w := range a.sets[s] {
			if a.sets[s][w].Valid && a.sets[s][w].Dirty {
				n++
			}
		}
	}
	return n
}

// ForEachLine invokes fn for every valid line with its base address.
func (a *Array) ForEachLine(fn func(addr uint32, ln *Line)) {
	for s := range a.sets {
		for w := range a.sets[s] {
			ln := &a.sets[s][w]
			if ln.Valid {
				addr := ln.Tag<<a.tagShift | uint32(s)<<a.setShift
				fn(addr, ln)
			}
		}
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func trailingSetBits(mask uint32) uint32 {
	bits := uint32(0)
	for mask != 0 {
		bits++
		mask >>= 1
	}
	return bits
}
