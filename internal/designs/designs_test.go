package designs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

func newNVM() *mem.NVM { return mem.NewNVM(mem.DefaultNVMParams()) }

func jit() energy.JITCosts { return energy.DefaultJITCosts() }

// design under test plus the NVM it was built over.
type dut struct {
	name    string
	build   func(nvm *mem.NVM) designIface
	durable bool // whether the design is crash consistent
}

func allDUTs() []dut {
	geo := cache.DefaultGeometry()
	return []dut{
		{"nocache", func(n *mem.NVM) designIface { return NewNoCache(jit(), n) }, true},
		{"vcache-wt", func(n *mem.NVM) designIface { return NewVCacheWT(geo, cache.SRAMTech(), cache.LRU, jit(), n) }, true},
		{"nvcache-wb", func(n *mem.NVM) designIface { return NewNVCacheWB(geo, cache.LRU, jit(), n) }, true},
		{"nvsram", func(n *mem.NVM) designIface { return NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n) }, true},
		{"replay", func(n *mem.NVM) designIface { return NewReplayCache(geo, cache.LRU, jit(), DefaultReplayParams(), n) }, true},
		{"broken", func(n *mem.NVM) designIface { return NewBrokenVolatileWB(geo, cache.LRU, jit(), n) }, false},
	}
}

type designIface interface {
	Access(int64, isa.Op, uint32, uint32) (uint32, int64, energy.Breakdown)
	Checkpoint(int64) (int64, energy.Breakdown)
	Restore(int64) (int64, energy.Breakdown)
	ReserveEnergy() float64
	LeakPower() float64
	DurableEqual(*mem.Store) error
	Name() string
}

// TestAllDesignsValueCorrectness drives a deterministic op stream with
// periodic power cycles through every design and checks loads against
// a golden image. The broken design is excluded from post-cycle value
// checks (it is *supposed* to corrupt) but must still answer loads
// before any outage.
func TestAllDesignsValueCorrectness(t *testing.T) {
	for _, d := range allDUTs() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			nvm := newNVM()
			des := d.build(nvm)
			golden := mem.NewStore()
			now := int64(0)
			rng := uint32(12345)
			for i := 0; i < 3000; i++ {
				rng = rng*1664525 + 1013904223
				addr := (rng % 2048) &^ 3
				switch {
				case i%97 == 96 && d.durable:
					done, _ := des.Checkpoint(now)
					if err := des.DurableEqual(golden); err != nil {
						t.Fatalf("durability after checkpoint %d: %v", i, err)
					}
					now, _ = des.Restore(done)
				case rng%3 == 0:
					val := rng ^ 0xfeedface
					golden.Write(addr, val)
					_, done, _ := des.Access(now, isa.OpStore, addr, val)
					now = done
				default:
					v, done, _ := des.Access(now, isa.OpLoad, addr, 0)
					if v != golden.Read(addr) {
						t.Fatalf("op %d: load %#x = %#x, want %#x", i, addr, v, golden.Read(addr))
					}
					now = done
				}
			}
			// Final durability via checkpoint.
			if d.durable {
				des.Checkpoint(now)
				if err := des.DurableEqual(golden); err != nil {
					t.Fatalf("final durability: %v", err)
				}
			}
		})
	}
}

// TestBrokenDesignActuallyBreaks is the negative control: a power
// cycle on the unsafe volatile WB cache must lose dirty data.
func TestBrokenDesignActuallyBreaks(t *testing.T) {
	nvm := newNVM()
	d := NewBrokenVolatileWB(cache.DefaultGeometry(), cache.LRU, jit(), nvm)
	golden := mem.NewStore()
	golden.Write(0x1000, 77)
	_, now, _ := d.Access(0, isa.OpStore, 0x1000, 77)
	done, _ := d.Checkpoint(now)
	if err := d.DurableEqual(golden); err == nil {
		t.Fatal("broken design claims durability for a lost dirty line")
	}
	done, _ = d.Restore(done)
	v, _, _ := d.Access(done, isa.OpLoad, 0x1000, 0)
	if v == 77 {
		t.Fatal("value survived a power cycle without any checkpoint — not volatile?")
	}
}

func TestWTStoreIsSynchronous(t *testing.T) {
	nvm := newNVM()
	d := NewVCacheWT(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), nvm)
	_, done, eb := d.Access(0, isa.OpStore, 0x100, 9)
	if done < nvm.Params().WordWriteLatency {
		t.Fatalf("WT store completed in %d ps, faster than the NVM write", done)
	}
	if eb.MemWrite <= 0 {
		t.Fatal("WT store drew no NVM energy")
	}
	// NVM image must be updated immediately (write-through).
	if nvm.Image().Read(0x100) != 9 {
		t.Fatal("write-through did not reach NVM")
	}
}

func TestWTNoWriteAllocate(t *testing.T) {
	nvm := newNVM()
	d := NewVCacheWT(cache.DefaultGeometry(), cache.SRAMTech(), cache.LRU, jit(), nvm)
	d.Access(0, isa.OpStore, 0x100, 9)
	if _, hit := d.Array().Lookup(0x100); hit {
		t.Fatal("store miss allocated a line in the WT cache")
	}
	// After a load the line is resident; a store hit updates it.
	d.Access(1e6, isa.OpLoad, 0x100, 0)
	d.Access(2e6, isa.OpStore, 0x100, 10)
	ln, hit := d.Array().Lookup(0x100)
	if !hit || ln.Data[0] != 10 {
		t.Fatal("store hit did not update the cached copy")
	}
	if ln.Dirty {
		t.Fatal("WT lines must never be dirty")
	}
}

func TestNVCacheWarmAcrossPowerCycle(t *testing.T) {
	nvm := newNVM()
	d := NewNVCacheWB(cache.DefaultGeometry(), cache.LRU, jit(), nvm)
	_, now, _ := d.Access(0, isa.OpStore, 0x200, 5)
	done, _ := d.Checkpoint(now)
	done, _ = d.Restore(done)
	if _, hit := d.Array().Lookup(0x200); !hit {
		t.Fatal("non-volatile cache lost its contents across the power cycle")
	}
	v, _, _ := d.Access(done, isa.OpLoad, 0x200, 0)
	if v != 5 {
		t.Fatalf("post-cycle load = %d", v)
	}
}

func TestNVCacheSlowerAndHungrierThanSRAM(t *testing.T) {
	nv, sram := cache.NVRAMTech(), cache.SRAMTech()
	if nv.WriteLatency <= sram.WriteLatency || nv.WriteEnergy <= sram.WriteEnergy {
		t.Fatal("NV cache writes must dominate SRAM writes")
	}
}

func TestNVSRAMCheckpointCountsDirtyOnly(t *testing.T) {
	nvm := newNVM()
	d := NewNVSRAM(cache.DefaultGeometry(), cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	now := int64(0)
	// Two dirty lines, one clean (loaded) line.
	_, now, _ = d.Access(now, isa.OpStore, 0x000, 1)
	_, now, _ = d.Access(now, isa.OpStore, 0x040, 2)
	_, now, _ = d.Access(now, isa.OpLoad, 0x080, 0)
	done, eb := d.Checkpoint(now)
	wantE := 2*DefaultNVSRAMParams().LineCheckpointEnergy + jit().RegCheckpointEnergy
	if eb.Checkpoint != wantE {
		t.Fatalf("checkpoint energy %g, want %g (2 dirty lines)", eb.Checkpoint, wantE)
	}
	if done-now != 2*DefaultNVSRAMParams().LineCheckpointTime+jit().RegCheckpointTime {
		t.Fatalf("checkpoint time %d", done-now)
	}
}

func TestNVSRAMWarmRestoreCost(t *testing.T) {
	nvm := newNVM()
	d := NewNVSRAM(cache.DefaultGeometry(), cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	_, now, _ := d.Access(0, isa.OpStore, 0x000, 1)
	done, _ := d.Checkpoint(now)
	done2, eb := d.Restore(done)
	// One valid line restored plus registers.
	if eb.Restore != DefaultNVSRAMParams().LineRestoreEnergy+jit().RestoreEnergy {
		t.Fatalf("restore energy %g", eb.Restore)
	}
	if _, hit := d.Array().Lookup(0x000); !hit {
		t.Fatal("NVSRAM cache cold after restore")
	}
	_ = done2
}

func TestNVSRAMReserveCoversWholeCache(t *testing.T) {
	nvm := newNVM()
	geo := cache.DefaultGeometry()
	d := NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	want := jit().BaseReserve + float64(geo.Lines())*DefaultNVSRAMParams().LineReserve
	if d.ReserveEnergy() != want {
		t.Fatalf("reserve %g, want %g", d.ReserveEnergy(), want)
	}
	// And it dwarfs the registers-only designs.
	if d.ReserveEnergy() < 5*jit().BaseReserve {
		t.Fatal("NVSRAM reserve suspiciously small")
	}
}

func TestReplayPersistsStoresAsynchronously(t *testing.T) {
	nvm := newNVM()
	d := NewReplayCache(cache.DefaultGeometry(), cache.LRU, jit(), DefaultReplayParams(), nvm)
	_, done, _ := d.Access(0, isa.OpStore, 0x300, 3)
	// The store must complete well before the NVM write latency: it
	// is asynchronous.
	if done >= nvm.Params().WordWriteLatency {
		t.Fatalf("replay store blocked for %d ps", done)
	}
	if nvm.Image().Read(0x300) != 3 {
		t.Fatal("persist did not reach the NVM image")
	}
}

func TestReplayRegionBarrierStalls(t *testing.T) {
	nvm := newNVM()
	p := DefaultReplayParams()
	d := NewReplayCache(cache.DefaultGeometry(), cache.LRU, jit(), p, nvm)
	now := int64(0)
	var lastDone int64
	for i := 0; i < p.RegionStores; i++ {
		_, done, _ := d.Access(now, isa.OpStore, uint32(0x400+i*4), uint32(i))
		lastDone = done
		now += 100 // back-to-back stores, port backs up
	}
	// The final (region-ending) store must have waited for the drain.
	if lastDone < nvm.BusyUntil()-int64(p.RegionStores)*100 {
		t.Fatal("region boundary did not wait for outstanding persists")
	}
	if d.ExtraStats().Stalls == 0 {
		t.Fatal("barrier stall not recorded")
	}
}

func TestReplayRestoreChargesReexecution(t *testing.T) {
	nvm := newNVM()
	d := NewReplayCache(cache.DefaultGeometry(), cache.LRU, jit(), DefaultReplayParams(), nvm)
	// One store into a fresh region, then fail mid-region.
	_, now, _ := d.Access(0, isa.OpStore, 0x500, 1)
	now += 50_000 // progress since the (implicit) barrier
	_, _, _ = d.Access(now, isa.OpLoad, 0x500, 0)
	done, _ := d.Checkpoint(now + 1000)
	done2, _ := d.Restore(done)
	if done2-done <= jit().RestoreTime {
		t.Fatal("no re-execution penalty charged")
	}
}

func TestNoCacheEveryAccessHitsNVM(t *testing.T) {
	nvm := newNVM()
	d := NewNoCache(jit(), nvm)
	d.Access(0, isa.OpStore, 0x10, 1)
	d.Access(1e6, isa.OpLoad, 0x10, 0)
	tr := nvm.Traffic()
	if tr.Reads != 1 || tr.Writes != 1 {
		t.Fatalf("traffic %+v, want one of each", tr)
	}
	if d.LeakPower() != 0 {
		t.Fatal("cacheless design should not leak array power")
	}
}

func TestReserveOrdering(t *testing.T) {
	// The paper's Table 1 energy-buffer column: NVSRAM large, WL small
	// (tested in core), everyone else registers-only.
	nvm := newNVM()
	geo := cache.DefaultGeometry()
	nvsram := NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), nvm)
	for _, d := range []designIface{
		NewNoCache(jit(), nvm),
		NewVCacheWT(geo, cache.SRAMTech(), cache.LRU, jit(), nvm),
		NewNVCacheWB(geo, cache.LRU, jit(), nvm),
		NewReplayCache(geo, cache.LRU, jit(), DefaultReplayParams(), nvm),
	} {
		if d.ReserveEnergy() != jit().BaseReserve {
			t.Errorf("%s reserve = %g, want registers-only", d.Name(), d.ReserveEnergy())
		}
		if d.ReserveEnergy() >= nvsram.ReserveEnergy() {
			t.Errorf("%s reserve not below NVSRAM's", d.Name())
		}
	}
}

// Property: for every durable design, any interleaving of accesses and
// power cycles preserves architectural values.
func TestDesignsQuickDurability(t *testing.T) {
	for _, d := range append(allDUTs(), variantDUTs()...) {
		if !d.durable {
			continue
		}
		d := d
		t.Run(d.name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				nvm := newNVM()
				des := d.build(nvm)
				golden := mem.NewStore()
				now := int64(0)
				for _, op := range ops {
					addr := uint32(op&0x1ff) << 2
					switch op % 7 {
					case 6:
						done, _ := des.Checkpoint(now)
						if des.DurableEqual(golden) != nil {
							return false
						}
						now, _ = des.Restore(done)
					case 1, 3:
						val := uint32(op) * 2654435761
						golden.Write(addr, val)
						_, done, _ := des.Access(now, isa.OpStore, addr, val)
						now = done
					default:
						v, done, _ := des.Access(now, isa.OpLoad, addr, 0)
						if v != golden.Read(addr) {
							return false
						}
						now = done
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteBackDesignsEvictDirtyLines drives streams several times the
// 8 KB cache through the write-back designs, so dirty victims are
// evicted and written back on fills: a stride that maps every line
// onto one set, and random addresses over a 64 KB footprint. Every
// load must return the last value stored (checked against a flat map),
// and after each checkpoint the durable state must equal it.
func TestWriteBackDesignsEvictDirtyLines(t *testing.T) {
	geo := cache.DefaultGeometry()
	setStride := uint32(geo.Sets() * geo.LineBytes) // consecutive lines of one set
	designs := []dut{
		{"nvcache-wb", func(n *mem.NVM) designIface { return NewNVCacheWB(geo, cache.LRU, jit(), n) }, true},
		{"nvsram", func(n *mem.NVM) designIface { return NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n) }, true},
		{"nvsram-full", func(n *mem.NVM) designIface {
			return NewNVSRAMFull(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n)
		}, true},
		{"eager-wb", func(n *mem.NVM) designIface { return NewEagerWB(geo, cache.LRU, jit(), n) }, true},
	}
	streams := []struct {
		name string
		addr func(r *rand.Rand) uint32
	}{
		// 16 lines contend for one 2-way set; the word offset varies.
		{"one set", func(r *rand.Rand) uint32 {
			return uint32(r.Intn(16))*setStride + uint32(r.Intn(geo.LineWords()))*4
		}},
		{"random", func(r *rand.Rand) uint32 { return uint32(r.Intn(64<<10)) &^ 3 }},
	}
	for _, d := range designs {
		for _, st := range streams {
			for seed := int64(1); seed <= 3; seed++ {
				nvm := newNVM()
				des := d.build(nvm)
				r := rand.New(rand.NewSource(seed))
				model := map[uint32]uint32{}
				now := int64(0)
				checkpoint := func(op int) {
					done, _ := des.Checkpoint(now)
					golden := mem.NewStore()
					for a, v := range model {
						golden.Write(a, v)
					}
					if err := des.DurableEqual(golden); err != nil {
						t.Fatalf("%s/%s/seed %d: after checkpoint at op %d: %v", d.name, st.name, seed, op, err)
					}
					now, _ = des.Restore(done)
				}
				for i := 0; i < 20_000; i++ {
					addr := st.addr(r)
					if r.Intn(2) == 0 {
						v := r.Uint32()
						model[addr] = v
						_, now, _ = des.Access(now, isa.OpStore, addr, v)
					} else {
						v, done, _ := des.Access(now, isa.OpLoad, addr, 0)
						if v != model[addr] {
							t.Fatalf("%s/%s/seed %d: op %d: load %#x = %#x, want %#x",
								d.name, st.name, seed, i, addr, v, model[addr])
						}
						now = done
					}
					if i%5000 == 4999 {
						checkpoint(i)
					}
				}
				checkpoint(20_000)
			}
		}
	}
}

// TestLRURecencyOnHit drives one set conflict through every LRU design:
// loads of A and B fill a 2-way set, a load hits A, and a load of C
// misses and must evict the least recently used line, B. A must then
// still hit while B refetches from NVM; a design that skips the
// recency update on a hit evicts A instead. nvsram-practical keeps its lines in
// two LRU banks of half the ways each, so it runs on a 4-way geometry,
// whose SRAM bank is 2-way; loads leave every line clean, so none
// migrates to the NV bank.
func TestLRURecencyOnHit(t *testing.T) {
	geo := cache.DefaultGeometry()
	geo4 := geo
	geo4.Ways = 4
	bank := cache.Geometry{SizeBytes: geo4.SizeBytes / 2, Ways: geo4.Ways / 2, LineBytes: geo4.LineBytes}
	for _, d := range []struct {
		name  string
		set   cache.Geometry // the 2-way array the three lines contend for
		build func(n *mem.NVM) designIface
	}{
		{"vcache-wt", geo, func(n *mem.NVM) designIface { return NewVCacheWT(geo, cache.SRAMTech(), cache.LRU, jit(), n) }},
		{"wt-buffer", geo, func(n *mem.NVM) designIface {
			return NewWTBuffer(geo, cache.SRAMTech(), cache.LRU, jit(), DefaultWTBufferParams(), n)
		}},
		{"nvcache-wb", geo, func(n *mem.NVM) designIface { return NewNVCacheWB(geo, cache.LRU, jit(), n) }},
		{"nvsram", geo, func(n *mem.NVM) designIface { return NewNVSRAM(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n) }},
		{"nvsram-full", geo, func(n *mem.NVM) designIface {
			return NewNVSRAMFull(geo, cache.LRU, jit(), DefaultNVSRAMParams(), n)
		}},
		{"nvsram-practical", bank, func(n *mem.NVM) designIface {
			return NewNVSRAMPractical(geo4, jit(), DefaultNVSRAMParams(), n)
		}},
		{"eager-wb", geo, func(n *mem.NVM) designIface { return NewEagerWB(geo, cache.LRU, jit(), n) }},
		{"replay", geo, func(n *mem.NVM) designIface { return NewReplayCache(geo, cache.LRU, jit(), DefaultReplayParams(), n) }},
		{"broken", geo, func(n *mem.NVM) designIface { return NewBrokenVolatileWB(geo, cache.LRU, jit(), n) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			if d.set.Ways != 2 {
				t.Fatalf("the conflict needs a 2-way set, got %d ways", d.set.Ways)
			}
			nvm := newNVM()
			des := d.build(nvm)
			stride := uint32(d.set.Sets() * d.set.LineBytes) // consecutive lines of one set
			a, b, c := uint32(0x40), 0x40+stride, 0x40+2*stride
			now := int64(0)
			// load reports whether the load of addr read NVM (a miss).
			load := func(addr uint32) bool {
				before := nvm.Traffic().Reads
				_, now, _ = des.Access(now, isa.OpLoad, addr, 0)
				return nvm.Traffic().Reads > before
			}
			for i, step := range []struct {
				addr uint32
				miss bool
				what string
			}{
				{a, true, "cold A"}, {b, true, "cold B"}, {a, false, "A, resident"},
				{c, true, "cold C"}, {a, false, "A, used after B"}, {b, true, "B, the LRU line C evicted"},
			} {
				if got := load(step.addr); got != step.miss {
					t.Fatalf("load %d (%s): miss = %v, want %v", i, step.what, got, step.miss)
				}
			}
		})
	}
}
