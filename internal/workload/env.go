// Package workload implements the 23 MediaBench/MiBench kernels the
// paper evaluates (§6.1), re-targeted at the simulated machine: each
// kernel performs its real computation (ADPCM coding, SHA-1, AES,
// FFTs, Dijkstra, ...) against the simulated address space via
// isa.Machine, so the cache designs observe realistic access streams,
// and returns a checksum of its outputs so crash-consistency tests
// can compare runs bit-for-bit.
//
// All kernels are integer/fixed-point (as on the MSP430-class targets
// the paper models) and deterministic.
package workload

import (
	"fmt"
	"math"

	"wlcache/internal/isa"
)

// arenaBase is the first byte address handed out to kernels.
const arenaBase = 0x0001_0000

// Env wraps the machine with a bump allocator and typed helpers.
type Env struct {
	m    isa.Machine
	next uint32
}

// NewEnv returns a fresh environment over m.
func NewEnv(m isa.Machine) *Env {
	return &Env{m: m, next: arenaBase}
}

// Alloc reserves words consecutive 32-bit words and returns the array
// handle. Allocation itself is bookkeeping, not simulated work.
func (e *Env) Alloc(words int) Arr {
	if words <= 0 {
		panic(fmt.Sprintf("workload: Alloc(%d)", words))
	}
	a := Arr{m: e.m, base: e.next, n: words}
	e.next += uint32(words) * isa.WordBytes
	return a
}

// Compute accounts for n ALU instructions.
func (e *Env) Compute(n int) { e.m.Compute(n) }

// Arr is a word array in the simulated address space. It holds the
// machine itself, and Load and Store inline into the kernels. Arr is
// four words, so the compiler keeps an inlined copy in registers; a
// larger one is copied to the stack at every inlined call.
type Arr struct {
	m    isa.Machine
	base uint32
	n    int
}

// elems is the range check of Load, Store and Slice: elems[:a.n] is a
// slice of a.n zero-size elements, so indexing or slicing it panics
// with the runtime's message, which names the index and the length. A
// check that formats its own message is a call, which the inlining
// budget cannot afford.
var elems [math.MaxInt32]struct{}

// Len returns the element count.
func (a Arr) Len() int { return a.n }

// Base returns the base byte address.
func (a Arr) Base() uint32 { return a.base }

// Load reads element i.
func (a Arr) Load(i int) uint32 {
	_ = elems[:a.n][i]
	return a.m.Load32(a.base + uint32(i)*isa.WordBytes)
}

// Store writes element i.
func (a Arr) Store(i int, v uint32) {
	_ = elems[:a.n][i]
	a.m.Store32(a.base+uint32(i)*isa.WordBytes, v)
}

// LoadI and StoreI are signed views of the array. They repeat the
// bodies of Load and Store, because calling them would cost more than
// the inlining budget.
func (a Arr) LoadI(i int) int32 {
	_ = elems[:a.n][i]
	return int32(a.m.Load32(a.base + uint32(i)*isa.WordBytes))
}

// StoreI writes a signed element.
func (a Arr) StoreI(i int, v int32) {
	_ = elems[:a.n][i]
	a.m.Store32(a.base+uint32(i)*isa.WordBytes, uint32(v))
}

// Slice returns a sub-array [from, from+n).
func (a Arr) Slice(from, n int) Arr {
	_ = elems[:a.n:a.n][from : from+n]
	return Arr{m: a.m, base: a.base + uint32(from)*isa.WordBytes, n: n}
}

// Checksum folds the array contents into a running FNV-1a style
// digest, loading every element through the cache hierarchy.
func (a Arr) Checksum(seed uint32) uint32 {
	h := seed
	if h == 0 {
		h = 2166136261
	}
	for i := 0; i < a.n; i++ {
		h = (h ^ a.Load(i)) * 16777619
		a.m.Compute(2)
	}
	return h
}

// mix is a cheap scalar hash combiner used by kernels.
func mix(h, v uint32) uint32 { return (h ^ v) * 16777619 }

// rng is a tiny deterministic PRNG (xorshift32) used by kernels to
// synthesize inputs; runs host-side (input generation is not
// simulated work until the values are stored).
type rng struct{ s uint32 }

func newRNG(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &rng{s: seed}
}

func (r *rng) next() uint32 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 17
	r.s ^= r.s << 5
	return r.s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint32(n)) }
