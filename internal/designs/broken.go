package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// BrokenVolatileWB is the strawman the paper's introduction warns
// about: a plain volatile write-back SRAM cache on an energy
// harvesting system with no cache checkpointing at all. It is fast
// and cheap — and loses every dirty line at power failure, silently
// corrupting memory. It exists as a negative control: tests assert
// that its durability check fails and that workloads running on it
// under power failures produce wrong results, motivating WL-Cache.
type BrokenVolatileWB struct {
	wbCache
	// The JIT checkpoint saves registers only: dirty cache lines are
	// abandoned, which is the design's flaw.
	regJIT
}

// NewBrokenVolatileWB builds the unsafe design.
func NewBrokenVolatileWB(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, nvm *mem.NVM) *BrokenVolatileWB {
	return &BrokenVolatileWB{wbCache: newWBCache(geo, cache.SRAMTech(), pol, nvm), regJIT: regJIT{jit}}
}

// Name identifies the design.
func (d *BrokenVolatileWB) Name() string { return "VolatileWB(broken)" }

// Access is a conventional write-back access at SRAM speed.
func (d *BrokenVolatileWB) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// Restore boots with a cold cache; whatever was dirty is gone.
func (d *BrokenVolatileWB) Restore(now int64) (int64, energy.Breakdown) {
	d.arr.InvalidateAll()
	return d.regJIT.Restore(now)
}

// LeakPower is the SRAM leakage.
func (d *BrokenVolatileWB) LeakPower() float64 { return d.tech.Leakage }

// DurableEqual reports the corruption: after an outage the NVM image
// is missing every dirty line the cache dropped.
func (d *BrokenVolatileWB) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
