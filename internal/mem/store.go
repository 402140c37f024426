// Package mem models the byte-addressable non-volatile main memory
// (NVM) of an energy harvesting system: a paged word-granular value
// store plus a timing/energy front end with single-port contention.
package mem

import "fmt"

const (
	// pageWords is the number of 32-bit words per page (4 KiB pages).
	pageWords = 1024
	pageShift = 12 // log2(pageWords * 4)
)

// Store is a sparse word-addressable value image. The zero value is an
// empty store in which every word reads as zero. Store has no timing;
// it is the raw data substrate shared by NVM images and cache lines.
//
// A one-entry last-page cache short-circuits the page-map lookup:
// simulated access streams have strong page locality, so most word
// accesses and virtually all line accesses resolve without touching
// the map.
type Store struct {
	pages map[uint32]*[pageWords]uint32

	lastIdx  uint32
	lastPage *[pageWords]uint32
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{pages: make(map[uint32]*[pageWords]uint32)}
}

// page returns the page holding addr, consulting the last-page cache
// first; nil when the page does not exist.
func (s *Store) page(idx uint32) *[pageWords]uint32 {
	if p := s.lastPage; p != nil && s.lastIdx == idx {
		return p
	}
	p := s.pages[idx]
	if p != nil {
		s.lastIdx, s.lastPage = idx, p
	}
	return p
}

// ensurePage returns the page holding addr, allocating it on first
// write.
func (s *Store) ensurePage(idx uint32) *[pageWords]uint32 {
	if p := s.lastPage; p != nil && s.lastIdx == idx {
		return p
	}
	p := s.pages[idx]
	if p == nil {
		p = new([pageWords]uint32)
		s.pages[idx] = p
	}
	s.lastIdx, s.lastPage = idx, p
	return p
}

// Read returns the word at byte address addr (must be 4-byte aligned).
func (s *Store) Read(addr uint32) uint32 {
	checkAlign(addr)
	p := s.page(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[(addr>>2)&(pageWords-1)]
}

// Write sets the word at byte address addr (must be 4-byte aligned).
func (s *Store) Write(addr uint32, v uint32) {
	checkAlign(addr)
	s.ensurePage(addr >> pageShift)[(addr>>2)&(pageWords-1)] = v
}

// ReadLine copies the n words starting at byte address addr into dst,
// resolving each page once per contiguous run instead of once per word
// (a cache line never spans pages, so this is one resolution per call).
func (s *Store) ReadLine(addr uint32, dst []uint32) {
	checkAlign(addr)
	for len(dst) > 0 {
		w := (addr >> 2) & (pageWords - 1)
		n := uint32(pageWords) - w
		if n > uint32(len(dst)) {
			n = uint32(len(dst))
		}
		if p := s.page(addr >> pageShift); p != nil {
			copy(dst[:n], p[w:w+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n * 4
	}
}

// WriteLine stores the words in src starting at byte address addr,
// resolving each page once per contiguous run.
func (s *Store) WriteLine(addr uint32, src []uint32) {
	checkAlign(addr)
	for len(src) > 0 {
		w := (addr >> 2) & (pageWords - 1)
		n := uint32(pageWords) - w
		if n > uint32(len(src)) {
			n = uint32(len(src))
		}
		copy(s.ensurePage(addr >> pageShift)[w:w+n], src[:n])
		src = src[n:]
		addr += n * 4
	}
}

// Equal reports whether the two stores hold identical contents. Pages
// absent from one store compare equal to all-zero pages in the other.
func (s *Store) Equal(o *Store) bool {
	return s.firstDiff(o) == nil
}

// FirstDiff describes the lowest-addressed differing word between the
// two stores, or returns "" if they are equal. Useful in test failures.
func (s *Store) FirstDiff(o *Store) string {
	d := s.firstDiff(o)
	if d == nil {
		return ""
	}
	return fmt.Sprintf("addr %#x: %#x != %#x", d.addr, d.a, d.b)
}

type diff struct {
	addr uint32
	a, b uint32
}

// zeroPage stands in for a page absent from one of the two stores.
var zeroPage [pageWords]uint32

// firstDiff returns the lowest-addressed differing word. Map iteration
// order is random, so it visits every page of both stores, and scans
// only pages below the lowest difference found so far: within a page
// the first difference is the lowest.
func (s *Store) firstDiff(o *Store) *diff {
	var best *diff
	scan := func(idx uint32, p, q *[pageWords]uint32) {
		if best != nil && idx >= best.addr>>pageShift {
			return
		}
		for i, v := range p {
			if w := q[i]; v != w {
				best = &diff{idx<<pageShift | uint32(i*4), v, w}
				return
			}
		}
	}
	for idx, p := range s.pages {
		q := o.pages[idx]
		if q == nil {
			q = &zeroPage
		}
		scan(idx, p, q)
	}
	for idx, q := range o.pages {
		if s.pages[idx] == nil { // otherwise compared above
			scan(idx, &zeroPage, q)
		}
	}
	return best
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := NewStore()
	for idx, p := range s.pages {
		cp := *p
		c.pages[idx] = &cp
	}
	return c
}

// Reset discards all contents.
func (s *Store) Reset() {
	s.pages = make(map[uint32]*[pageWords]uint32)
	s.lastIdx, s.lastPage = 0, nil
}

func checkAlign(addr uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", addr))
	}
}
