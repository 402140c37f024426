package designs

import (
	"testing"

	"wlcache/internal/cache"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// The NVSRAM full/practical variants and the §3.3 write-buffer design
// join the shared correctness matrix. Every run builds nvsram-practical
// at the default 2 ways, one per bank; the 4-way build on a 4-set array
// (two ways per bank) makes the matrix's streams choose victims by LRU
// inside each bank.
func variantDUTs() []dut {
	geo := cache.DefaultGeometry()
	small4 := cache.Geometry{SizeBytes: 1024, Ways: 4, LineBytes: 64}
	return []dut{
		{"nvsram-full", func(n *mem.NVM) designIface {
			return NewNVSRAMFull(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n)
		}, true},
		{"nvsram-practical", func(n *mem.NVM) designIface {
			return NewNVSRAMPractical(geo, jit(), DefaultNVSRAMParams(), n)
		}, true},
		{"nvsram-practical-4way", func(n *mem.NVM) designIface {
			return NewNVSRAMPractical(small4, jit(), DefaultNVSRAMParams(), n)
		}, true},
		{"wt-buffer", func(n *mem.NVM) designIface {
			return NewWTBuffer(geo, cache.SRAMTech(), cache.LRU, jit(), DefaultWTBufferParams(), n)
		}, true},
		{"eager-wb", func(n *mem.NVM) designIface {
			return NewEagerWB(geo, cache.LRU, jit(), n)
		}, true},
	}
}

// TestVariantsValueCorrectness drives the same op stream + power
// cycles through the variant designs.
func TestVariantsValueCorrectness(t *testing.T) {
	for _, d := range variantDUTs() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			nvm := newNVM()
			des := d.build(nvm)
			golden := mem.NewStore()
			now := int64(0)
			rng := uint32(999)
			for i := 0; i < 4000; i++ {
				rng = rng*1664525 + 1013904223
				addr := (rng % 4096) &^ 3
				switch {
				case i%89 == 88:
					done, _ := des.Checkpoint(now)
					if err := des.DurableEqual(golden); err != nil {
						t.Fatalf("durability after checkpoint %d: %v", i, err)
					}
					now, _ = des.Restore(done)
				case rng%3 != 0:
					v, done, _ := des.Access(now, isa.OpLoad, addr, 0)
					if v != golden.Read(addr) {
						t.Fatalf("op %d: load %#x = %#x, want %#x", i, addr, v, golden.Read(addr))
					}
					now = done
				default:
					val := rng ^ 0x77777777
					golden.Write(addr, val)
					_, done, _ := des.Access(now, isa.OpStore, addr, val)
					now = done
				}
			}
			des.Checkpoint(now)
			if err := des.DurableEqual(golden); err != nil {
				t.Fatalf("final durability: %v", err)
			}
		})
	}
}

func TestNVSRAMFullCheckpointsWholeCache(t *testing.T) {
	nvm := newNVM()
	geo := cache.DefaultGeometry()
	d := NewNVSRAMFull(geo, cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	// A single dirty line still costs a full-cache checkpoint.
	_, now, _ := d.Access(0, isa.OpStore, 0x100, 1)
	done, eb := d.Checkpoint(now)
	wantE := float64(geo.Lines())*DefaultNVSRAMParams().LineCheckpointEnergy + jit().RegCheckpointEnergy
	if eb.Checkpoint != wantE {
		t.Fatalf("checkpoint energy %g, want whole-cache %g", eb.Checkpoint, wantE)
	}
	wantT := now + int64(geo.Lines())*DefaultNVSRAMParams().LineCheckpointTime + jit().RegCheckpointTime
	if done != wantT {
		t.Fatalf("checkpoint time %d, want %d", done, wantT)
	}
	// Same reserve as the ideal variant.
	ideal := NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	if d.ReserveEnergy() != ideal.ReserveEnergy() {
		t.Fatal("full and ideal variants must reserve the same energy")
	}
}

func TestNVSRAMPracticalKeepsNVWaysClean(t *testing.T) {
	nvm := newNVM()
	d := NewNVSRAMPractical(cache.DefaultGeometry(), jit(), DefaultNVSRAMParams(), nvm)
	now := int64(0)
	// Fill a set's SRAM way and force migrations via conflicting
	// stores (2-way: 1 SRAM + 1 NV way; stride 4 KB aliases the set).
	for i := 0; i < 4; i++ {
		_, now, _ = d.Access(now, isa.OpStore, uint32(0x1000+i*8192), uint32(i+1))
	}
	if d.ExtraStats().Writebacks == 0 {
		t.Fatal("no migrations / eager write-backs happened")
	}
	// Every value must still be architecturally reachable.
	for i := 0; i < 4; i++ {
		v, done, _ := d.Access(now, isa.OpLoad, uint32(0x1000+i*8192), 0)
		if v != uint32(i+1) {
			t.Fatalf("value %d lost across migration: got %d", i+1, v)
		}
		now = done
	}
}

func TestNVSRAMPracticalMediumReserve(t *testing.T) {
	nvm := newNVM()
	geo := cache.DefaultGeometry()
	pract := NewNVSRAMPractical(geo, jit(), DefaultNVSRAMParams(), nvm)
	ideal := NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	wt := NewVCacheWT(geo, cache.SRAMTech(), cache.LRU, jit(), nvm)
	if !(pract.ReserveEnergy() < ideal.ReserveEnergy() && pract.ReserveEnergy() > wt.ReserveEnergy()) {
		t.Fatalf("practical reserve %g not between WT %g and ideal %g",
			pract.ReserveEnergy(), wt.ReserveEnergy(), ideal.ReserveEnergy())
	}
}

func TestNVSRAMPracticalHalfWarmRestore(t *testing.T) {
	nvm := newNVM()
	d := NewNVSRAMPractical(cache.DefaultGeometry(), jit(), DefaultNVSRAMParams(), nvm)
	// Park a dirty line via checkpoint, then restore.
	_, now, _ := d.Access(0, isa.OpStore, 0x2000, 42)
	done, _ := d.Checkpoint(now)
	done, _ = d.Restore(done)
	// The line must be servable (it lives in an NV way now) with the
	// right value.
	v, _, _ := d.Access(done, isa.OpLoad, 0x2000, 0)
	if v != 42 {
		t.Fatalf("post-restore load = %d, want 42", v)
	}
}

func TestNVSRAMPracticalRejectsOddWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd way count accepted")
		}
	}()
	NewNVSRAMPractical(cache.Geometry{SizeBytes: 8192, Ways: 1, LineBytes: 64}, jit(), DefaultNVSRAMParams(), newNVM())
}

// TestConstructorsRejectBadParams: a parameter that would leave a
// design unable to run is a configuration bug, caught at build time
// rather than replaced by a hidden default.
func TestConstructorsRejectBadParams(t *testing.T) {
	geo := cache.DefaultGeometry()
	noRegion := DefaultReplayParams()
	noRegion.RegionStores = 0
	noSlots := DefaultWTBufferParams()
	noSlots.Slots = 0
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"replaycache RegionStores 0", func() { NewReplayCache(geo, cache.LRU, jit(), noRegion, newNVM()) }},
		{"wt-buffer Slots 0", func() { NewWTBuffer(geo, cache.SRAMTech(), cache.LRU, jit(), noSlots, newNVM()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("accepted")
				}
			}()
			tc.build()
		})
	}
}

func TestWTBufferForwardsFromBuffer(t *testing.T) {
	nvm := newNVM()
	d := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), DefaultWTBufferParams(), nvm)
	// Store then load immediately: the NVM write is still in flight,
	// so the value must be forwarded from the CAM.
	_, now, _ := d.Access(0, isa.OpStore, 0x3000, 5)
	v, _, _ := d.Access(now, isa.OpLoad, 0x3000, 0)
	if v != 5 {
		t.Fatalf("CAM forwarding failed: got %d", v)
	}
}

func TestWTBufferStallsWhenFull(t *testing.T) {
	nvm := newNVM()
	p := DefaultWTBufferParams()
	d := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), p, nvm)
	now := int64(0)
	for i := 0; i <= p.Slots; i++ {
		_, now, _ = d.Access(now, isa.OpStore, uint32(0x100+i*4), uint32(i))
	}
	if d.ExtraStats().Stalls == 0 {
		t.Fatal("buffer overflow did not stall")
	}
}

func TestWTBufferMissFillMergesBufferedStores(t *testing.T) {
	nvm := newNVM()
	d := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), DefaultWTBufferParams(), nvm)
	// Store to a line that is NOT cached, then immediately load a
	// *different* word of the same line: the fill must merge the
	// buffered store so a subsequent load of the stored word (now a
	// cache hit, no CAM match needed once drained) sees the value.
	_, now, _ := d.Access(0, isa.OpStore, 0x4000, 9)
	_, now, _ = d.Access(now, isa.OpLoad, 0x4004, 0) // fills the line
	now += 1_000_000                                 // let the buffer drain
	v, _, _ := d.Access(now, isa.OpLoad, 0x4000, 0)
	if v != 9 {
		t.Fatalf("fill did not merge the in-flight store: got %d", v)
	}
}

func TestEagerWBUnboundedReserve(t *testing.T) {
	nvm := newNVM()
	geo := cache.DefaultGeometry()
	eager := NewEagerWB(geo, cache.LRU, jit(), nvm)
	// The §7 point: no dirty bound means a whole-cache reserve, far
	// above WL-Cache's DirtyQueue-sized one (checked in core tests)
	// and on par with per-line NVM flush costs.
	if eager.ReserveEnergy() < float64(geo.Lines())*50e-9 {
		t.Fatalf("EagerWB reserve %g suspiciously small for %d lines", eager.ReserveEnergy(), geo.Lines())
	}
}

func TestEagerWBOpportunisticFlush(t *testing.T) {
	nvm := newNVM()
	d := NewEagerWB(cache.DefaultGeometry(), cache.LRU, jit(), nvm)
	_, now, _ := d.Access(0, isa.OpStore, 0x100, 1)
	// A long idle gap, then another access: the dirty line should have
	// been flushed opportunistically.
	now += 10_000_000
	_, _, _ = d.Access(now, isa.OpLoad, 0x2000, 0)
	if d.ExtraStats().Writebacks == 0 {
		t.Fatal("no opportunistic flush despite an idle bus")
	}
	if nvm.Image().Read(0x100) != 1 {
		t.Fatal("flush did not persist the value")
	}
}

func TestWTBufferReserveScalesWithSlots(t *testing.T) {
	nvm := newNVM()
	small := DefaultWTBufferParams()
	small.Slots = 4
	big := DefaultWTBufferParams()
	big.Slots = 16
	ds := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), small, nvm)
	db := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), big, nvm)
	if ds.ReserveEnergy() >= db.ReserveEnergy() {
		t.Fatal("reserve must grow with buffer depth (§3.3 issue 2)")
	}
}

// drainOracle is the drain WTBuffer had before it relied on issue order:
// keep every entry still in flight, whatever its position.
func drainOracle(buf []wtBufEntry, now int64) []wtBufEntry {
	var keep []wtBufEntry
	for _, e := range buf {
		if e.done > now {
			keep = append(keep, e)
		}
	}
	return keep
}

// TestWTBufferDrainsInIssueOrder pins the invariant the prefix drain and
// Checkpoint (which reads buf[n-1].done as the last completion) rely on:
// the single NVM port serializes writes, so buffered entries complete in
// issue order. A seeded stream of store bursts that fill every slot,
// buffer-full stalls and load misses that merge buffered stores checks
// the order after every access, and the prefix drain against the filter
// it replaced, at the current time and at every entry's completion.
func TestWTBufferDrainsInIssueOrder(t *testing.T) {
	nvm := newNVM()
	p := DefaultWTBufferParams()
	d := NewWTBuffer(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), p, nvm)
	golden := mem.NewStore()
	checkDrain := func(at int64) {
		t.Helper()
		want := drainOracle(d.buf, at)
		tmp := &WTBuffer{buf: append([]wtBufEntry(nil), d.buf...)}
		tmp.drain(at)
		if len(tmp.buf) != len(want) {
			t.Fatalf("drain(%d) kept %d entries, the filter keeps %d", at, len(tmp.buf), len(want))
		}
		for i := range want {
			if tmp.buf[i] != want[i] {
				t.Fatalf("drain(%d) entry %d = %+v, the filter keeps %+v", at, i, tmp.buf[i], want[i])
			}
		}
	}
	rng := uint32(2024)
	next := func() uint32 { rng = rng*1664525 + 1013904223; return rng >> 8 }
	now := int64(0)
	merges := 0
	for i := 0; i < 6000; i++ {
		checkDrain(now)
		for _, e := range d.buf {
			checkDrain(e.done)
			checkDrain(e.done - 1)
		}
		r := next()
		// A small footprint (16 lines) keeps misses on lines with
		// buffered stores frequent.
		addr := (next() % 1024) &^ 3
		switch {
		case r%97 == 0:
			done, _ := d.Checkpoint(now)
			if err := d.DurableEqual(golden); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			now, _ = d.Restore(done)
		case r%41 == 0:
			now += int64(next() % 400_000) // idle gap: part or all of the buffer drains
		case r%3 == 0:
			if _, hit := d.arr.Lookup(addr); !hit {
				for _, e := range drainOracle(d.buf, now) {
					if d.arr.LineAddr(e.addr) == d.arr.LineAddr(addr) {
						merges++
						break
					}
				}
			}
			v, done, _ := d.Access(now, isa.OpLoad, addr, 0)
			if v != golden.Read(addr) {
				t.Fatalf("op %d: load %#x = %#x, want %#x", i, addr, v, golden.Read(addr))
			}
			now = done
		default:
			// A burst of back-to-back stores outruns the port and fills
			// every slot.
			for n := int(next()%12) + 1; n > 0; n-- {
				val := next()
				golden.Write(addr, val)
				_, now, _ = d.Access(now, isa.OpStore, addr, val)
				addr = (addr + 4) % 1024
			}
		}
		for k := 1; k < len(d.buf); k++ {
			if d.buf[k].done < d.buf[k-1].done {
				t.Fatalf("op %d: buf[%d].done %d < buf[%d].done %d", i, k, d.buf[k].done, k-1, d.buf[k-1].done)
			}
		}
		if len(d.buf) > p.Slots {
			t.Fatalf("op %d: %d buffered stores in %d slots", i, len(d.buf), p.Slots)
		}
	}
	if d.ExtraStats().Stalls == 0 || merges == 0 {
		t.Fatalf("stream exercised %d buffer-full stalls and %d merging misses; want both", d.ExtraStats().Stalls, merges)
	}
	t.Logf("%d stalls, %d merging misses", d.ExtraStats().Stalls, merges)
}
