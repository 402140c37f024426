package mem

import (
	"fmt"
	"testing"
)

// FuzzStoreVsMap cross-checks the paged store against a plain map
// under arbitrary operation sequences encoded as bytes: each 9-byte
// record is an opcode, an address and a value. Word and line writes
// and reads, Reset, Clone and FirstDiff all run against the model.
func FuzzStoreVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xfc, 0x00, 0x10, 0x20})
	f.Add([]byte{
		2, 0xe0, 0xff, 0x3f, 0x00, 0x20, 0, 0, 0, // line across the first leaf boundary
		3, 0xf0, 0xff, 0x3f, 0x00, 0x10, 0, 0, 0,
		5, 0x00, 0x10, 0x00, 0x00, 0x01, 0, 0, 0,
		6, 0xfc, 0xff, 0xff, 0xff, 0x07, 0, 0, 0, // top word
		4, 0, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		ref := map[uint32]uint32{}
		buf := make([]uint32, 32)
		for i := 0; i+9 <= len(data); i += 9 {
			op := data[i]
			addr := (uint32(data[i+1]) | uint32(data[i+2])<<8 | uint32(data[i+3])<<16 | uint32(data[i+4])<<24) &^ 3
			val := uint32(data[i+5]) | uint32(data[i+6])<<8 | uint32(data[i+7])<<16 | uint32(data[i+8])<<24
			n := 1 + int(val%uint32(len(buf)))
			switch op % 7 {
			case 0, 1: // word write
				s.Write(addr, val)
				ref[addr] = val
				if got := s.Read(addr); got != val {
					t.Fatalf("read-after-write %#x: %#x != %#x", addr, got, val)
				}
			case 2: // line write (may cross page and leaf boundaries, and wrap)
				for j := range buf[:n] {
					buf[j] = val + uint32(j)*0x9e3779b9
				}
				s.WriteLine(addr, buf[:n])
				for j, v := range buf[:n] {
					ref[addr+uint32(j*4)] = v
				}
			case 3: // line read
				s.ReadLine(addr, buf[:n])
				for j, v := range buf[:n] {
					if want := ref[addr+uint32(j*4)]; v != want {
						t.Fatalf("ReadLine(%#x)[%d] = %#x, want %#x", addr, j, v, want)
					}
				}
			case 4: // Reset
				s.Reset()
				clear(ref)
			case 5: // FirstDiff against an empty store: the lowest nonzero word
				want := ""
				if a, ok := lowestNonzero(ref); ok {
					want = fmt.Sprintf("addr %#x: %#x != %#x", a, ref[a], 0)
				}
				if got := s.FirstDiff(NewStore()); got != want {
					t.Fatalf("FirstDiff vs empty = %q, want %q", got, want)
				}
			default: // FirstDiff against a clone differing at addr and above it
				c := s.Clone()
				c.Write(addr, ref[addr]^(val|1))
				if hi := addr + val&^3; hi > addr {
					c.Write(hi, ref[hi]^1)
				}
				want := fmt.Sprintf("addr %#x: %#x != %#x", addr, ref[addr], ref[addr]^(val|1))
				if got := s.FirstDiff(c); got != want {
					t.Fatalf("FirstDiff vs clone = %q, want %q", got, want)
				}
			}
		}
		for a, v := range ref {
			if got := s.Read(a); got != v {
				t.Fatalf("final read %#x: %#x != %#x", a, got, v)
			}
		}
		if !s.Equal(s.Clone()) {
			t.Fatal("clone not equal")
		}
	})
}

// lowestNonzero returns the lowest address holding a nonzero word.
func lowestNonzero(m map[uint32]uint32) (uint32, bool) {
	var low uint32
	found := false
	for a, v := range m {
		if v != 0 && (!found || a < low) {
			low, found = a, true
		}
	}
	return low, found
}
