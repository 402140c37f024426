package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveReadLine is the pre-page-aware reference: one full address
// resolution per word.
func naiveReadLine(s *Store, addr uint32, dst []uint32) {
	for i := range dst {
		dst[i] = s.Read(addr + uint32(i*4))
	}
}

// naiveWriteLine mirrors naiveReadLine for stores.
func naiveWriteLine(s *Store, addr uint32, src []uint32) {
	for i, v := range src {
		s.Write(addr+uint32(i*4), v)
	}
}

// TestStorePropertyRandomOps drives a Store with a random mix of word
// and line operations against a flat map model and a second Store fed
// exclusively through the naive per-word paths. The page table and the
// run-based line paths must be invisible.
func TestStorePropertyRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := NewStore()
	naive := NewStore()
	model := map[uint32]uint32{}

	// Cluster addresses around a few pages (to reuse pages) plus a
	// uniform tail (to allocate pages and switch between them).
	randAddr := func() uint32 {
		if r.Intn(4) > 0 {
			base := uint32(r.Intn(4)) << pageShift
			return base + uint32(r.Intn(pageWords))<<2
		}
		return uint32(r.Intn(1<<20)) << 2
	}

	buf := make([]uint32, 64)
	for i := 0; i < 200_000; i++ {
		switch r.Intn(6) {
		case 0, 1: // word write
			a, v := randAddr(), r.Uint32()
			s.Write(a, v)
			naive.Write(a, v)
			model[a] = v
		case 2, 3: // word read
			a := randAddr()
			if got, want := s.Read(a), model[a]; got != want {
				t.Fatalf("op %d: Read(%#x) = %#x, want %#x", i, a, got, want)
			}
		case 4: // line write (random length, may span a page boundary)
			n := 1 + r.Intn(len(buf))
			a := randAddr()
			for j := 0; j < n; j++ {
				buf[j] = r.Uint32()
			}
			s.WriteLine(a, buf[:n])
			naiveWriteLine(naive, a, buf[:n])
			for j := 0; j < n; j++ {
				model[a+uint32(j*4)] = buf[j]
			}
		default: // line read
			n := 1 + r.Intn(len(buf))
			a := randAddr()
			s.ReadLine(a, buf[:n])
			for j := 0; j < n; j++ {
				if want := model[a+uint32(j*4)]; buf[j] != want {
					t.Fatalf("op %d: ReadLine(%#x)[%d] = %#x, want %#x", i, a, j, buf[j], want)
				}
			}
		}
	}
	if d := s.FirstDiff(naive); d != "" {
		t.Fatalf("page-aware store diverged from naive store: %s", d)
	}
}

// TestStoreLineSpansPages pins the page-boundary split in the run-based
// line paths: a line written across a boundary must land in both pages
// and read back through both the fast path and the per-word path.
func TestStoreLineSpansPages(t *testing.T) {
	s := NewStore()
	const words = 16
	// Start 8 words before the end of page 2.
	addr := uint32(3)<<pageShift - 8*4
	src := make([]uint32, words)
	for i := range src {
		src[i] = 0xA0000000 + uint32(i)
	}
	s.WriteLine(addr, src)

	got := make([]uint32, words)
	s.ReadLine(addr, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("ReadLine[%d] = %#x, want %#x", i, got[i], src[i])
		}
		if v := s.Read(addr + uint32(i*4)); v != src[i] {
			t.Fatalf("Read(%#x) = %#x, want %#x", addr+uint32(i*4), v, src[i])
		}
	}

	// Reading a line that starts in an allocated page and runs into an
	// untouched one must zero-fill the tail.
	s.Write(uint32(9)<<pageShift-4, 0xBEEF) // last word of page 8; page 9 untouched
	tail := make([]uint32, words)
	for i := range tail {
		tail[i] = 0xFF // stale garbage that must be overwritten
	}
	s.ReadLine(uint32(9)<<pageShift-4, tail)
	if tail[0] != 0xBEEF {
		t.Fatalf("tail[0] = %#x, want 0xBEEF", tail[0])
	}
	for i := 1; i < words; i++ {
		if tail[i] != 0 {
			t.Fatalf("tail[%d] = %#x, want zero fill", i, tail[i])
		}
	}
}

// TestStoreResetDiscardsImage: after Reset every word reads zero, and
// a write lands in a fresh image — nothing of the discarded one shows
// through, not even the other words of a page it rewrites.
func TestStoreResetDiscardsImage(t *testing.T) {
	s := NewStore()
	s.Write(0x1000, 42)
	s.Write(0x1004, 43)
	s.Reset()
	if v := s.Read(0x1000); v != 0 {
		t.Fatalf("Read after Reset = %d, want 0", v)
	}
	s.Write(0x1000, 7)
	if v := s.Read(0x1004); v != 0 {
		t.Fatalf("write after Reset revived the discarded page: Read(0x1004) = %d", v)
	}
	if v := s.Read(0x1000); v != 7 {
		t.Fatalf("Read = %d, want 7", v)
	}
	want := NewStore()
	want.Write(0x1000, 7)
	if d := s.FirstDiff(want); d != "" {
		t.Fatalf("store after Reset and one write: %s", d)
	}
}

// TestStoreCloneIndependent: a write to a clone never shows in the
// original, and a write to the original never shows in the clone.
func TestStoreCloneIndependent(t *testing.T) {
	s := NewStore()
	s.Write(0x2000, 1)
	c := s.Clone()
	c.Write(0x2000, 9)
	if v := s.Read(0x2000); v != 1 {
		t.Fatalf("original sees clone's write: %d", v)
	}
	s.Write(0x2000, 5)
	if v := c.Read(0x2000); v != 9 {
		t.Fatalf("clone sees original's write: %d", v)
	}
}

// TestStorePageTableBoundaries pins the edges of the page table: page
// 0, the top page (0xFFFFF000–0xFFFFFFFC) and a line crossing from the
// last page of one directory leaf into the first page of the next.
func TestStorePageTableBoundaries(t *testing.T) {
	const leafBytes = uint32(leafPages) << pageShift
	cases := []struct {
		name string
		addr uint32
	}{
		{"page 0", 0},
		{"leaf boundary", leafBytes - 8*4},
		{"second leaf boundary", 3*leafBytes - 4},
		{"top page", 0xFFFFF000},
		{"top words", 0xFFFFFFC0},
	}
	for _, c := range cases {
		s := NewStore()
		src := make([]uint32, 16)
		for i := range src {
			src[i] = 0xC0000000 + uint32(i)
		}
		s.WriteLine(c.addr, src)
		got := make([]uint32, len(src))
		s.ReadLine(c.addr, got)
		for i := range src {
			a := c.addr + uint32(i*4)
			if got[i] != src[i] {
				t.Fatalf("%s: ReadLine[%d] = %#x, want %#x", c.name, i, got[i], src[i])
			}
			if v := s.Read(a); v != src[i] {
				t.Fatalf("%s: Read(%#x) = %#x, want %#x", c.name, a, v, src[i])
			}
		}
		// The words either side of the line stay zero.
		if v := s.Read(c.addr - 4); c.addr != 0 && v != 0 {
			t.Fatalf("%s: word below the line = %#x", c.name, v)
		}
		if end := c.addr + uint32(len(src)*4); end != 0 && s.Read(end) != 0 {
			t.Fatalf("%s: word above the line = %#x", c.name, s.Read(end))
		}
		if d := s.FirstDiff(NewStore()); d != fmt.Sprintf("addr %#x: %#x != 0x0", c.addr, src[0]) {
			t.Fatalf("%s: FirstDiff vs empty = %q", c.name, d)
		}
	}
	s := NewStore()
	s.Write(0xFFFFFFFC, 9)
	if v := s.Read(0xFFFFFFFC); v != 9 {
		t.Fatalf("top word = %d, want 9", v)
	}
	if v := s.Read(0); v != 0 {
		t.Fatalf("top write showed at address 0: %d", v)
	}
}
