// Package mem models the byte-addressable non-volatile main memory
// (NVM) of an energy harvesting system: a paged word-granular value
// store plus a timing/energy front end with single-port contention.
package mem

import "fmt"

const (
	// pageWords is the number of 32-bit words per page (4 KiB pages).
	pageWords = 1024
	pageShift = 12 // log2(pageWords * 4)
	// leafPages is the number of pages one directory leaf maps (4 MiB
	// of address space per leaf).
	leafPages = 1024
	leafShift = 10 // log2(leafPages)
)

type (
	page [pageWords]uint32
	leaf [leafPages]*page
)

// Store is a sparse word-addressable value image. The zero value is an
// empty store in which every word reads as zero. Store has no timing;
// it is the raw data substrate shared by NVM images and cache lines.
//
// Pages sit in a two-level page table: a directory of leaves, each
// mapping leafPages consecutive pages. The directory grows to the
// highest leaf written, so a workload whose data sits in the low 4 MiB
// pays for one leaf, and a lookup is two indexed loads — no hashing.
// Walking the table visits pages in ascending address order.
type Store struct {
	dir []*leaf
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// pageAt returns page idx, or nil when it does not exist.
func (s *Store) pageAt(idx uint32) *page {
	if d := idx >> leafShift; d < uint32(len(s.dir)) {
		if l := s.dir[d]; l != nil {
			return l[idx&(leafPages-1)]
		}
	}
	return nil
}

// ensurePage returns page idx, allocating it on first write.
func (s *Store) ensurePage(idx uint32) *page {
	if p := s.pageAt(idx); p != nil {
		return p
	}
	d := idx >> leafShift
	if d >= uint32(len(s.dir)) {
		s.dir = append(s.dir, make([]*leaf, d+1-uint32(len(s.dir)))...)
	}
	l := s.dir[d]
	if l == nil {
		l = new(leaf)
		s.dir[d] = l
	}
	p := new(page)
	l[idx&(leafPages-1)] = p
	return p
}

// Read returns the word at byte address addr (must be 4-byte aligned).
func (s *Store) Read(addr uint32) uint32 {
	checkAlign(addr)
	p := s.pageAt(addr >> pageShift)
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
		if p := s.pageAt(addr >> pageShift); p != nil {
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
var zeroPage page

// firstDiff returns the lowest-addressed differing word: it walks both
// page tables in ascending page order and stops at the first
// difference.
func (s *Store) firstDiff(o *Store) *diff {
	for d := 0; d < max(len(s.dir), len(o.dir)); d++ {
		ls, lo := s.leafAt(d), o.leafAt(d)
		if ls == nil && lo == nil {
			continue
		}
		for i := 0; i < leafPages; i++ {
			p, q := pageIn(ls, i), pageIn(lo, i)
			if p == q { // both absent (or one store compared with itself)
				continue
			}
			if p == nil {
				p = &zeroPage
			}
			if q == nil {
				q = &zeroPage
			}
			if *p == *q {
				continue
			}
			for w, v := range p {
				if v != q[w] {
					idx := uint32(d)<<leafShift | uint32(i)
					return &diff{idx<<pageShift | uint32(w*4), v, q[w]}
				}
			}
		}
	}
	return nil
}

// leafAt returns directory entry d, nil when past the directory's end.
func (s *Store) leafAt(d int) *leaf {
	if d < len(s.dir) {
		return s.dir[d]
	}
	return nil
}

// pageIn returns page i of leaf l, nil when l is nil.
func pageIn(l *leaf, i int) *page {
	if l == nil {
		return nil
	}
	return l[i]
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := &Store{dir: make([]*leaf, len(s.dir))}
	for d, l := range s.dir {
		if l == nil {
			continue
		}
		cl := new(leaf)
		for i, p := range l {
			if p != nil {
				cp := *p
				cl[i] = &cp
			}
		}
		c.dir[d] = cl
	}
	return c
}

// Reset discards all contents.
func (s *Store) Reset() { s.dir = nil }

func checkAlign(addr uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", addr))
	}
}
