package cache

import (
	"testing"

	"wlcache/internal/mem"
)

func TestTechDefaults(t *testing.T) {
	sram, nv := SRAMTech(), NVRAMTech()
	if sram.HitLatency >= nv.HitLatency {
		t.Fatal("SRAM must read faster than the NV cache")
	}
	if sram.WriteEnergy >= nv.WriteEnergy {
		t.Fatal("SRAM writes must be cheaper than NV cache writes")
	}
	if sram.Leakage >= nv.Leakage {
		t.Fatal("paper: NV cache leaks more than SRAM at runtime")
	}
	for _, tech := range []Tech{sram, nv} {
		if tech.ReplacementEnergy[LRU] <= tech.ReplacementEnergy[FIFO] {
			t.Fatal("LRU bookkeeping must cost more than FIFO (§6.5)")
		}
	}
}

func TestDurableEqualNoOverlay(t *testing.T) {
	golden, image := mem.NewStore(), mem.NewStore()
	golden.Write(0x100, 1)
	if err := DurableEqual(golden, image, nil); err == nil {
		t.Fatal("missing write not detected")
	}
	image.Write(0x100, 1)
	if err := DurableEqual(golden, image, nil); err != nil {
		t.Fatalf("consistent state reported as diverged: %v", err)
	}
}

func TestDurableEqualWithOverlay(t *testing.T) {
	golden, image := mem.NewStore(), mem.NewStore()
	// The architectural value lives only in a (non-volatile) cache
	// line; main memory is stale.
	golden.Write(0x1000, 42)
	image.Write(0x1000, 7) // stale

	arr := NewArray(DefaultGeometry(), LRU)
	v := arr.Victim(0x1000)
	arr.Fill(v, 0x1000)
	v.Data[0] = 42

	if err := DurableEqual(golden, image, nil); err == nil {
		t.Fatal("stale NVM alone must fail the check")
	}
	if err := DurableEqual(golden, image, arr); err != nil {
		t.Fatalf("overlayed cache should satisfy durability: %v", err)
	}
	// The overlay must not mutate the underlying image.
	if image.Read(0x1000) != 7 {
		t.Fatal("DurableEqual mutated the NVM image")
	}
}
