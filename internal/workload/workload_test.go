package workload

import (
	"strings"
	"testing"
	"unsafe"

	"wlcache/internal/isa"
)

// flatMachine is a timing-free machine: a plain memory map. It lets
// workload algorithms be tested independently of the simulator.
type flatMachine struct {
	mem    map[uint32]uint32
	instrs uint64
	loads  uint64
	stores uint64
}

func newFlat() *flatMachine { return &flatMachine{mem: make(map[uint32]uint32)} }

func (f *flatMachine) Load32(addr uint32) uint32 {
	if addr&3 != 0 {
		panic("unaligned")
	}
	f.loads++
	f.instrs++
	return f.mem[addr]
}

func (f *flatMachine) Store32(addr uint32, v uint32) {
	if addr&3 != 0 {
		panic("unaligned")
	}
	f.stores++
	f.instrs++
	f.mem[addr] = v
}

func (f *flatMachine) Compute(n int) { f.instrs += uint64(n) }

var _ isa.Machine = (*flatMachine)(nil)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d workloads, the paper uses 23", len(all))
	}
	if len(SuiteNames(MediaBench)) != 15 {
		t.Fatalf("MediaBench has %d entries, want 15", len(SuiteNames(MediaBench)))
	}
	if len(SuiteNames(MiBench)) != 8 {
		t.Fatalf("MiBench has %d entries, want 8", len(SuiteNames(MiBench)))
	}
	for _, w := range all {
		if w.Run == nil {
			t.Fatalf("%s has no Run", w.Name)
		}
	}
	if _, ok := ByName("sha"); !ok {
		t.Fatal("ByName(sha) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown name")
	}
	if names := SortedNames(); len(names) != 23 {
		t.Fatal("SortedNames wrong length")
	}
}

// TestAllWorkloadsDeterministic runs every kernel twice on fresh flat
// machines: identical checksums and identical instruction counts.
func TestAllWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			m1, m2 := newFlat(), newFlat()
			c1 := w.Run(m1, 1)
			c2 := w.Run(m2, 1)
			if c1 != c2 {
				t.Fatalf("checksums differ: %#x vs %#x", c1, c2)
			}
			if m1.instrs != m2.instrs {
				t.Fatalf("instruction counts differ: %d vs %d", m1.instrs, m2.instrs)
			}
			if m1.instrs == 0 || m1.loads == 0 || m1.stores == 0 {
				t.Fatalf("kernel did no work: instr=%d loads=%d stores=%d", m1.instrs, m1.loads, m1.stores)
			}
		})
	}
}

// TestWorkloadsScale checks scale actually grows the work.
func TestWorkloadsScale(t *testing.T) {
	for _, name := range []string{"sha", "adpcmencode", "qsort", "rijndael_e"} {
		w, _ := ByName(name)
		m1, m2 := newFlat(), newFlat()
		w.Run(m1, 1)
		w.Run(m2, 2)
		if m2.instrs < m1.instrs*3/2 {
			t.Errorf("%s: scale 2 only grew work %d -> %d", name, m1.instrs, m2.instrs)
		}
	}
}

func TestEnvAllocAndBounds(t *testing.T) {
	e := NewEnv(newFlat())
	a := e.Alloc(4)
	b := e.Alloc(4)
	if b.Base()-a.Base() != 16 {
		t.Fatalf("allocations overlap or gap: %#x %#x", a.Base(), b.Base())
	}
	a.Store(0, 1)
	a.Store(3, 2)
	if a.Load(0) != 1 || a.Load(3) != 2 {
		t.Fatal("array round trip failed")
	}
	for _, f := range []func(){
		func() { a.Load(4) },
		func() { a.Load(-1) },
		func() { a.Store(4, 0) },
		func() { a.Slice(2, 3) },
		func() { e.Alloc(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access accepted")
				}
			}()
			f()
		}()
	}
}

// An out-of-range index panics with a message naming the index and
// the array's length (the runtime's bounds check on Arr's index slice).
func TestOutOfRangePanicNamesIndexAndLength(t *testing.T) {
	a := NewEnv(newFlat()).Alloc(5)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"Load(9)", func() { a.Load(9) }, "index out of range [9] with length 5"},
		{"Load(-1)", func() { a.Load(-1) }, "index out of range [-1]"},
		{"Store(5)", func() { a.Store(5, 0) }, "index out of range [5] with length 5"},
		{"Slice(3, 4)", func() { a.Slice(3, 4) }, "slice bounds out of range [:7] with capacity 5"},
		{"Slice(3, -1)", func() { a.Slice(3, -1) }, "slice bounds out of range [3:2]"},
		{"Slice(3, 1).Load(1)", func() { a.Slice(3, 1).Load(1) }, "index out of range [1] with length 1"},
	} {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: panic %v, want %q", tc.name, r, tc.want)
				}
			}()
			tc.f()
		}()
	}
}

// Arr must stay at most four words: the compiler keeps a struct that
// size in registers, but copies a larger one to the stack at every
// inlined Load and Store, which costs more than the inlining saves.
func TestArrFitsInRegisters(t *testing.T) {
	if size, max := unsafe.Sizeof(Arr{}), 4*unsafe.Sizeof(uintptr(0)); size > max {
		t.Fatalf("Arr is %d bytes, want at most %d", size, max)
	}
}

func TestEnvSlice(t *testing.T) {
	e := NewEnv(newFlat())
	a := e.Alloc(10)
	for i := 0; i < 10; i++ {
		a.Store(i, uint32(i*10))
	}
	s := a.Slice(3, 4)
	if s.Len() != 4 || s.Load(0) != 30 || s.Load(3) != 60 {
		t.Fatal("slice view wrong")
	}
	s.Store(0, 99)
	if a.Load(3) != 99 {
		t.Fatal("slice not aliased to parent")
	}
}

func TestSignedHelpers(t *testing.T) {
	e := NewEnv(newFlat())
	a := e.Alloc(1)
	a.StoreI(0, -5)
	if a.LoadI(0) != -5 {
		t.Fatal("signed round trip failed")
	}
}

func TestChecksumLoadsThroughMachine(t *testing.T) {
	m := newFlat()
	e := NewEnv(m)
	a := e.Alloc(8)
	for i := 0; i < 8; i++ {
		a.Store(i, uint32(i))
	}
	before := m.loads
	c1 := a.Checksum(0)
	if m.loads != before+8 {
		t.Fatal("checksum did not load every element")
	}
	if c2 := a.Checksum(0); c1 != c2 {
		t.Fatal("checksum not deterministic")
	}
	if c3 := a.Checksum(123); c3 == c1 {
		t.Fatal("seed ignored")
	}
}

func TestRNGDeterministicNonZero(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatal("rng not deterministic")
		}
		if x == 0 {
			t.Fatal("xorshift produced 0")
		}
	}
	if newRNG(0).next() == 0 {
		t.Fatal("zero seed not remapped")
	}
	r := newRNG(9)
	for i := 0; i < 100; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
}
