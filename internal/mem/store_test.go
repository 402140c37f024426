package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	if got := s.Read(0x1000); got != 0 {
		t.Fatalf("fresh store read = %#x, want 0", got)
	}
	s.Write(0x1000, 0xdeadbeef)
	if got := s.Read(0x1000); got != 0xdeadbeef {
		t.Fatalf("read = %#x, want 0xdeadbeef", got)
	}
	// Neighbors unaffected.
	if got := s.Read(0x1004); got != 0 {
		t.Fatalf("neighbor read = %#x, want 0", got)
	}
	s.Write(0x1000, 1)
	if got := s.Read(0x1000); got != 1 {
		t.Fatalf("overwrite read = %#x, want 1", got)
	}
}

func TestStoreCrossesPageBoundaries(t *testing.T) {
	s := NewStore()
	// Write around a 4 KiB page boundary.
	for _, addr := range []uint32{0x0ffc, 0x1000, 0x1ffc, 0x2000, 0xfffffffc} {
		s.Write(addr, addr^0x5a5a5a5a)
	}
	for _, addr := range []uint32{0x0ffc, 0x1000, 0x1ffc, 0x2000, 0xfffffffc} {
		if got := s.Read(addr); got != addr^0x5a5a5a5a {
			t.Errorf("read(%#x) = %#x, want %#x", addr, got, addr^0x5a5a5a5a)
		}
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	s := NewStore()
	for _, addr := range []uint32{1, 2, 3, 0x1001, 0x1002, 0x1003} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for unaligned address %#x", addr)
				}
			}()
			s.Read(addr)
		}()
	}
}

func TestStoreLineOps(t *testing.T) {
	s := NewStore()
	src := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	s.WriteLine(0x4000, src)
	dst := make([]uint32, 8)
	s.ReadLine(0x4000, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("line word %d = %d, want %d", i, dst[i], src[i])
		}
	}
	// Individual words visible too.
	if got := s.Read(0x4000 + 12); got != 4 {
		t.Fatalf("word read through line = %d, want 4", got)
	}
}

func TestStoreEqualAndDiff(t *testing.T) {
	a, b := NewStore(), NewStore()
	if !a.Equal(b) {
		t.Fatal("two empty stores should be equal")
	}
	a.Write(0x100, 7)
	if a.Equal(b) {
		t.Fatal("stores differ but Equal returned true")
	}
	if d := a.FirstDiff(b); d == "" {
		t.Fatal("FirstDiff empty for differing stores")
	}
	b.Write(0x100, 7)
	if !a.Equal(b) {
		t.Fatal("stores equal but Equal returned false")
	}
	// Zero-valued write equals missing page.
	b.Write(0x2000, 0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("explicit zero must equal absent page (both directions)")
	}
}

func TestStoreFirstDiffIsLowestAddress(t *testing.T) {
	a, b := NewStore(), NewStore()
	// Differences on three pages, one of them absent from a.
	a.Write(0x9008, 1)
	a.Write(0x3010, 2)
	a.Write(0x3004+2*pageWords*4, 3)
	b.Write(0x5000, 4)
	const want = "addr 0x3010: 0x2 != 0x0"
	for i := 0; i < 50; i++ {
		if got := a.FirstDiff(b); got != want {
			t.Fatalf("call %d: FirstDiff = %q, want %q", i, got, want)
		}
	}
	if got := b.FirstDiff(a); got != "addr 0x3010: 0x0 != 0x2" {
		t.Fatalf("reversed FirstDiff = %q", got)
	}

	// Differences in different directory leaves: the lowest sits in a
	// leaf only b has, below a leaf where both have pages.
	const leafBytes = uint32(leafPages) << pageShift
	a, b = NewStore(), NewStore()
	a.Write(5*leafBytes+0x40, 1)
	b.Write(5*leafBytes+0x40, 2)
	a.Write(9*leafBytes, 3)
	b.Write(2*leafBytes+0x7fc, 4)
	if got, want := a.FirstDiff(b), fmt.Sprintf("addr %#x: 0x0 != 0x4", 2*leafBytes+0x7fc); got != want {
		t.Fatalf("cross-leaf FirstDiff = %q, want %q", got, want)
	}
	if got, want := b.FirstDiff(a), fmt.Sprintf("addr %#x: 0x4 != 0x0", 2*leafBytes+0x7fc); got != want {
		t.Fatalf("reversed cross-leaf FirstDiff = %q, want %q", got, want)
	}
}

func TestStoreClone(t *testing.T) {
	a := NewStore()
	a.Write(0x100, 42)
	c := a.Clone()
	c.Write(0x100, 43)
	if a.Read(0x100) != 42 {
		t.Fatal("clone write mutated the original")
	}
	if c.Read(0x100) != 43 {
		t.Fatal("clone lost its own write")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore()
	s.Write(0x100, 1)
	s.Reset()
	if s.Read(0x100) != 0 {
		t.Fatal("Reset did not clear contents")
	}
}

// TestStoreQuickRoundTrip property: the last write to an address wins.
func TestStoreQuickRoundTrip(t *testing.T) {
	f := func(addrs []uint32, vals []uint32) bool {
		s := NewStore()
		last := map[uint32]uint32{}
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := addrs[i] &^ 3
			s.Write(a, vals[i])
			last[a] = vals[i]
		}
		for a, v := range last {
			if s.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuickCloneEqual property: a clone always equals its source.
func TestStoreQuickCloneEqual(t *testing.T) {
	f := func(addrs []uint32, vals []uint32) bool {
		s := NewStore()
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			s.Write(addrs[i]&^3, vals[i])
		}
		return s.Equal(s.Clone()) && s.Clone().Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
