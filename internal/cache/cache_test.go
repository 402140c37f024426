package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{
		DefaultGeometry(),
		{SizeBytes: 128, Ways: 1, LineBytes: 64},
		{SizeBytes: 4096, Ways: 4, LineBytes: 32},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", g, err)
		}
	}
	bad := []Geometry{
		{},
		{SizeBytes: 8192, Ways: 0, LineBytes: 64},
		{SizeBytes: 8192, Ways: 2, LineBytes: 6},  // not multiple of word
		{SizeBytes: 8192, Ways: 3, LineBytes: 64}, // not divisible
		{SizeBytes: 8192, Ways: 2, LineBytes: 48}, // line not power of 2
		{SizeBytes: 6144, Ways: 2, LineBytes: 64}, // sets not power of 2
		{SizeBytes: -64, Ways: 2, LineBytes: 64},  // negative
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", g)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.Sets() != 64 {
		t.Fatalf("Sets = %d, want 64", g.Sets())
	}
	if g.Lines() != 128 {
		t.Fatalf("Lines = %d, want 128", g.Lines())
	}
	if g.LineWords() != 16 {
		t.Fatalf("LineWords = %d, want 16", g.LineWords())
	}
}

func fillLine(a *Array, addr uint32, seed uint32) {
	ln, hit := a.Lookup(addr)
	if !hit {
		ln = a.Victim(addr)
		a.Fill(ln, a.LineAddr(addr))
	}
	for i := range ln.Data {
		ln.Data[i] = seed + uint32(i)
	}
}

// TestFillContract pins Array.Fill: the victim line becomes the line
// Lookup finds, valid and clean; it leaves the line's data to the
// caller (which reads memory straight into it); and it still refuses to
// install a second copy of a resident line.
func TestFillContract(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	fillLine(a, 0x1000, 100)
	old, _ := a.Lookup(0x1000)
	// Same set, other tag: the second way is still invalid.
	v := a.Victim(0x2000)
	if v == old {
		t.Fatal("victim is the resident line while a way is free")
	}
	copy(v.Data, []uint32{7, 8, 9})
	v.Dirty = true
	a.Fill(v, 0x2000)
	if got, hit := a.Lookup(0x2004); !hit || got != v {
		t.Fatalf("Lookup after Fill = %p, %v; want the filled line %p", got, hit, v)
	}
	if !v.Valid || v.Dirty {
		t.Fatalf("filled line valid=%v dirty=%v, want valid and clean", v.Valid, v.Dirty)
	}
	if v.Data[0] != 7 || v.Data[1] != 8 || v.Data[2] != 9 {
		t.Fatalf("Fill touched the line data: %v", v.Data[:3])
	}
	if a.VictimAddr(v, 0x2000) != 0x2000 {
		t.Fatalf("VictimAddr = %#x, want 0x2000", a.VictimAddr(v, 0x2000))
	}

	// Filling the resident 0x1000 into the other way is a caller bug.
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of a resident line into another way did not panic")
		}
		if got, hit := a.Lookup(0x2000); !hit || got != v {
			t.Fatal("the refused Fill changed the victim line")
		}
	}()
	a.Fill(v, 0x1000)
}

func TestArrayHitMiss(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	if _, hit := a.Lookup(0x1000); hit {
		t.Fatal("hit in empty cache")
	}
	fillLine(a, 0x1000, 100)
	ln, hit := a.Lookup(0x1004)
	if !hit {
		t.Fatal("miss after fill")
	}
	if ln.Data[a.WordIndex(0x1004)] != 101 {
		t.Fatalf("data = %d, want 101", ln.Data[1])
	}
	// A different set must miss.
	if _, hit := a.Lookup(0x1040); hit {
		t.Fatal("hit in a different set")
	}
	// Same set, different tag must miss.
	if _, hit := a.Lookup(0x1000 + 8192); hit {
		t.Fatal("hit with different tag")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU) // 2 ways
	// Three lines mapping to the same set (stride = size/ways = 4 KB).
	l0, l1, l2 := uint32(0x0000), uint32(0x1000), uint32(0x2000)
	fillLine(a, l0, 0)
	fillLine(a, l1, 16)
	// Touch l0 so l1 becomes LRU.
	ln, _ := a.Lookup(l0)
	a.Touch(ln)
	fillLine(a, l2, 32)
	if _, hit := a.Lookup(l1); hit {
		t.Fatal("LRU line survived eviction")
	}
	if _, hit := a.Lookup(l0); !hit {
		t.Fatal("MRU line was evicted")
	}
}

func TestArrayFIFOEviction(t *testing.T) {
	a := NewArray(DefaultGeometry(), FIFO)
	l0, l1, l2 := uint32(0x0000), uint32(0x1000), uint32(0x2000)
	fillLine(a, l0, 0)
	fillLine(a, l1, 16)
	// Touching must NOT matter for FIFO.
	ln, _ := a.Lookup(l0)
	a.Touch(ln)
	fillLine(a, l2, 32)
	if _, hit := a.Lookup(l0); hit {
		t.Fatal("FIFO: oldest line survived eviction despite touch")
	}
	if _, hit := a.Lookup(l1); !hit {
		t.Fatal("FIFO: younger line was evicted")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	fillLine(a, 0x1000, 0)
	v := a.Victim(0x1000)
	if v.Valid {
		t.Fatal("victim should be the invalid way while one is free")
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	for _, addr := range []uint32{0x0, 0x1040, 0x7fc0, 0x23480, 0xfffc0} {
		fillLine(a, addr, addr)
		ln, hit := a.Lookup(addr)
		if !hit {
			t.Fatalf("miss after fill at %#x", addr)
		}
		if got := a.VictimAddr(ln, addr); got != a.LineAddr(addr) {
			t.Fatalf("VictimAddr = %#x, want %#x", got, a.LineAddr(addr))
		}
	}
}

func TestInvalidateAllAndDirtyCount(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	fillLine(a, 0x1000, 0)
	fillLine(a, 0x2040, 0)
	ln, _ := a.Lookup(0x1000)
	ln.Dirty = true
	if a.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d, want 1", a.DirtyCount())
	}
	a.InvalidateAll()
	if a.DirtyCount() != 0 {
		t.Fatal("dirty lines survived InvalidateAll")
	}
	if _, hit := a.Lookup(0x1000); hit {
		t.Fatal("line survived InvalidateAll")
	}
}

func TestForEachLine(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	addrs := []uint32{0x1000, 0x2040, 0x3080}
	for _, ad := range addrs {
		fillLine(a, ad, ad)
	}
	seen := map[uint32]bool{}
	a.ForEachLine(func(addr uint32, ln *Line) { seen[addr] = true })
	for _, ad := range addrs {
		if !seen[ad] {
			t.Fatalf("ForEachLine missed %#x", ad)
		}
	}
	if len(seen) != len(addrs) {
		t.Fatalf("ForEachLine visited %d lines, want %d", len(seen), len(addrs))
	}
}

func TestDirectMappedArray(t *testing.T) {
	g := Geometry{SizeBytes: 1024, Ways: 1, LineBytes: 64}
	a := NewArray(g, LRU)
	fillLine(a, 0x0, 1)
	fillLine(a, 0x400, 2) // conflicts in direct-mapped 1 KB
	if _, hit := a.Lookup(0x0); hit {
		t.Fatal("conflicting line survived in direct-mapped cache")
	}
	if _, hit := a.Lookup(0x400); !hit {
		t.Fatal("new line absent")
	}
}

// Property: Lookup after Fill always hits with the filled data, and
// VictimAddr always reconstructs the filled address.
func TestArrayQuickFillLookup(t *testing.T) {
	a := NewArray(DefaultGeometry(), LRU)
	f := func(addr uint32, seed uint32) bool {
		addr &^= 3
		fillLine(a, addr, seed)
		ln, hit := a.Lookup(addr)
		if !hit {
			return false
		}
		if ln.Data[a.WordIndex(addr)] != seed+uint32(a.WordIndex(addr)) {
			return false
		}
		return a.VictimAddr(ln, addr) == a.LineAddr(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never holds two lines with the same (set, tag).
func TestArrayQuickNoDuplicates(t *testing.T) {
	a := NewArray(Geometry{SizeBytes: 1024, Ways: 2, LineBytes: 64}, FIFO)
	f := func(addrs []uint32) bool {
		for _, ad := range addrs {
			fillLine(a, ad&0xffff, ad)
		}
		seen := map[uint32]int{}
		a.ForEachLine(func(addr uint32, ln *Line) { seen[addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
