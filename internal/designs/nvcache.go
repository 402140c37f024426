package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// NVCacheWB is the fully non-volatile write-back cache (Figure 1(c),
// §2.3.2): the array itself is ReRAM, so its contents — including
// dirty lines — survive power failure and no cache checkpointing is
// needed. The price is slow, energy-hungry accesses (especially
// writes) and high leakage at runtime.
type NVCacheWB struct {
	wbCache
	// The JIT checkpoint saves registers only, and the cache boots
	// warm: the non-volatile array kept its contents.
	regJIT
}

// NewNVCacheWB builds the non-volatile write-back design.
func NewNVCacheWB(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, nvm *mem.NVM) *NVCacheWB {
	return &NVCacheWB{wbCache: newWBCache(geo, cache.NVRAMTech(), pol, nvm), regJIT: regJIT{jit}}
}

// Name identifies the design.
func (d *NVCacheWB) Name() string { return "NVCache-WB" }

// Access is a conventional write-back access at NVRAM speed.
func (d *NVCacheWB) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// LeakPower is the NV array leakage (§6.2 puts WL-Cache's DirtyQueue
// at 9% of this).
func (d *NVCacheWB) LeakPower() float64 { return d.tech.Leakage }

// DurableEqual overlays the (non-volatile) array onto the NVM image.
func (d *NVCacheWB) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), d.arr)
}
