package expt

import (
	"math"
	"testing"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/sim"
)

// TestEveryKindIsEBAccessor pins each kind's optional interfaces
// (sim.Design itself requires AccessEB, so the compiler checks the
// access path). sim.New and bench's tracer dispatch on the optional
// interfaces, and embedding can silently add or drop one of them, so
// the table records which of them each kind implements.
func TestEveryKindIsEBAccessor(t *testing.T) {
	type methods struct{ reboot, extra, probe, notify, observe bool }
	wl := methods{true, true, true, true, true}
	want := map[Kind]methods{
		KindNoCache:         {},
		KindVCacheWT:        {},
		KindWTBuffer:        {extra: true, observe: true},
		KindNVCache:         {},
		KindNVSRAM:          {extra: true},
		KindNVSRAMFull:      {extra: true},
		KindNVSRAMPractical: {extra: true},
		KindEagerWB:         {extra: true},
		KindReplay:          {extra: true, observe: true},
		KindBroken:          {},
		KindWLFixed:         wl,
		KindWL:              wl,
		KindWLDyn:           wl,
	}
	if len(want) != len(AllKinds()) {
		t.Fatalf("table has %d kinds, AllKinds %d", len(want), len(AllKinds()))
	}
	for _, kind := range AllKinds() {
		d, _ := NewDesign(kind, Options{})
		var got methods
		_, got.reboot = d.(sim.Rebooter)
		_, got.extra = d.(sim.ExtraStatser)
		_, got.probe = d.(sim.EnergyProbeBinder)
		_, got.notify = d.(sim.ReserveNotifyBinder)
		_, got.observe = d.(sim.ObserverBinder)
		if got != want[kind] {
			t.Errorf("%s: optional interfaces %+v, want %+v", kind, got, want[kind])
		}
	}
}

// accessFootprint maps an op's two bytes onto 8 tags × 4 sets × 16
// words: eight lines compete for each set of the 2-way default cache,
// so the stream evicts, refills and writes back.
func accessFootprint(b0, b1 byte) uint32 {
	word := uint32(b0>>4&7) | uint32(b1>>5&1)<<3
	return uint32(b1&7)<<12 | uint32(b1>>3&3)<<6 | word<<2
}

// maxAccessOps caps one input's stream. The fuzzer minimizes every
// input that finds new coverage exec by exec, so a short stream over
// one kind per exec keeps it fuzzing rather than minimizing.
const maxAccessOps = 128

// openWindow stands in for the fast tier's open settle window: the
// running totals AccessEB adds into. Its fields are far larger than one
// access's terms, so a design that associates a sum differently from
// window.Add(&one) over a by-value Access shows in the low bits.
//
// Only nvsram-practical is held to window.Add(&one) bit for bit: its
// fast-tier results were recorded through the by-value path, and a
// change in association would move them without an EngineVersion bump.
// Every other kind's fast tier has always added each term straight into
// the window, so its running window matches the by-value sum only to
// rounding (windowTol, relative).
var openWindow = energy.Breakdown{
	CacheRead: 3.0517578125e-7 / 3, CacheWrite: 1.1e-7, MemRead: 2.9e-7, MemWrite: 4.7e-7,
	Compute: 1.3e-7, Checkpoint: 7.1e-8, Restore: 5.3e-8, Leak: 1.7e-8,
}

const windowTol = 1e-12

// driveAccessContract decodes data two bytes per op — b0&15 picks a
// load (0-7), a store (8-14) or a Checkpoint+Restore pair (15), b0's
// top bit an idle gap before the op, and the footprint above the
// address — and runs the stream through three twins of kind: one by
// value through Access, and two through AccessEB, the way the two tiers
// call it: one into a zeroed breakdown per op (exact), one into a
// running window (fast), checked against the by-value results summed
// with Add (see openWindow). The twins must agree on every value, time, breakdown bit
// and extra counter. Every kind but the broken negative control must
// also load the golden image's value and pass DurableEqual after every
// checkpoint.
func driveAccessContract(t *testing.T, kind Kind, data []byte) {
	t.Helper()
	byVal, _ := NewDesign(kind, Options{})
	var twins [2]sim.Design // zeroed, running
	var eba [2]sim.EBAccessor
	for k := range twins {
		twins[k], _ = NewDesign(kind, Options{})
		var ok bool
		if eba[k], ok = twins[k].(sim.EBAccessor); !ok {
			t.Fatalf("%s does not implement sim.EBAccessor", kind)
		}
	}
	sound := kind != KindBroken
	golden := mem.NewStore()
	want, window := openWindow, openWindow
	now, boot, lastOn := int64(0), int64(0), int64(0)
	for i := 0; i+1 < len(data) && i < 2*maxAccessOps; i += 2 {
		b0, b1 := data[i], data[i+1]
		if b0&0x80 != 0 {
			now += 200_000
		}
		if b0&15 == 15 {
			done, ebV := byVal.Checkpoint(now)
			for _, tw := range twins {
				done2, ebP := tw.Checkpoint(now)
				checkTwinStep(t, kind, i, "checkpoint", 0, 0, done, done2, ebV, ebP, 0)
			}
			if sound {
				if err := byVal.DurableEqual(golden); err != nil {
					t.Fatalf("%s op %d: after checkpoint: %v", kind, i, err)
				}
			}
			now, ebV = byVal.Restore(done)
			for _, tw := range twins {
				done2, ebP := tw.Restore(done)
				checkTwinStep(t, kind, i, "restore", 0, 0, now, done2, ebV, ebP, 0)
			}
			if rb, ok := byVal.(sim.Rebooter); ok {
				on := done - boot
				rb.OnBoot(on, lastOn)
				for _, tw := range twins {
					tw.(sim.Rebooter).OnBoot(on, lastOn)
				}
				lastOn = on
			}
			boot = now
			continue
		}
		op, addr, val := isa.OpLoad, accessFootprint(b0, b1), uint32(0)
		if b0&15 >= 8 {
			op, val = isa.OpStore, uint32(i)*0x9e3779b9^uint32(b0)<<8|uint32(b1)
			golden.Write(addr, val)
		}
		v, done, ebV := byVal.Access(now, op, addr, val)
		var ebP energy.Breakdown
		v2, done2 := eba[0].AccessEB(now, op, addr, val, &ebP)
		checkTwinStep(t, kind, i, "access", v, v2, done, done2, ebV, ebP, 0)
		want.Add(&ebV)
		v2, done2 = eba[1].AccessEB(now, op, addr, val, &window)
		tol := windowTol
		if kind == KindNVSRAMPractical {
			tol = 0
		}
		checkTwinStep(t, kind, i, "access into a running window", v, v2, done, done2, want, window, tol)
		if sound && op == isa.OpLoad && v != golden.Read(addr) {
			t.Fatalf("%s op %d: load %#x = %#x, want %#x", kind, i, addr, v, golden.Read(addr))
		}
		now = done
	}
	if es, ok := byVal.(sim.ExtraStatser); ok {
		for _, tw := range twins {
			if a, b := es.ExtraStats(), tw.(sim.ExtraStatser).ExtraStats(); a != b {
				t.Fatalf("%s: ExtraStats by value %+v, by pointer %+v", kind, a, b)
			}
		}
	}
}

// checkTwinStep compares one step of two twins: values and times
// exactly, breakdowns bit for bit at tol 0 and to tol (relative)
// otherwise.
func checkTwinStep(t *testing.T, kind Kind, i int, what string, v, v2 uint32, done, done2 int64, a, b energy.Breakdown, tol float64) {
	t.Helper()
	if v != v2 || done != done2 {
		t.Fatalf("%s op %d %s: by value (%#x, %d), by pointer (%#x, %d)", kind, i, what, v, done, v2, done2)
	}
	av := [...]float64{a.CacheRead, a.CacheWrite, a.MemRead, a.MemWrite, a.Compute, a.Checkpoint, a.Restore, a.Leak}
	bv := [...]float64{b.CacheRead, b.CacheWrite, b.MemRead, b.MemWrite, b.Compute, b.Checkpoint, b.Restore, b.Leak}
	for k := range av {
		if tol == 0 && math.Float64bits(av[k]) != math.Float64bits(bv[k]) || math.Abs(av[k]-bv[k]) > tol*math.Abs(av[k]) {
			t.Fatalf("%s op %d %s: breakdown by value %+v, by pointer %+v", kind, i, what, a, b)
		}
	}
}

// accessSeed is a deterministic op stream for the seed corpus.
func accessSeed(seed uint32, ops int) []byte {
	b := make([]byte, 2*ops)
	for i := range b {
		seed = seed*1664525 + 1013904223
		b[i] = byte(seed >> 24)
	}
	return b
}

// FuzzDesignAccess holds each kind's two access methods to one
// contract (see driveAccessContract) on fuzzer-chosen op streams. The
// seed corpus gives every kind a mixed stream and a store-heavy one.
func FuzzDesignAccess(f *testing.F) {
	kinds := AllKinds()
	for k := range kinds {
		f.Add(uint8(k), accessSeed(uint32(k)+1, maxAccessOps))
		// Store-heavy with no idle gaps and one checkpoint mid-stream:
		// write buffers and DirtyQueues fill.
		store := accessSeed(uint32(k)+100, maxAccessOps)
		for i := 0; i < len(store); i += 2 {
			store[i] = store[i]&0x70 | (8 + store[i]%7)
		}
		store[len(store)/2] = 15
		f.Add(uint8(k), store)
	}
	f.Fuzz(func(t *testing.T, kind uint8, ops []byte) {
		driveAccessContract(t, kinds[int(kind)%len(kinds)], ops)
	})
}
