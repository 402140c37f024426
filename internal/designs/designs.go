// Package designs implements the cache organizations WL-Cache is
// evaluated against (§2.3, Table 1, §3.3, §7):
//
//   - NoCache: the plain non-volatile processor;
//   - VCacheWT: volatile write-through;
//   - WTBuffer: write-through with an asynchronous write buffer (§3.3);
//   - NVCacheWB: fully non-volatile write-back;
//   - NVSRAM: ideal volatile write-back with a non-volatile twin;
//   - NVSRAMFull: the same twin, checkpointing the whole array;
//   - NVSRAMPractical: a hybrid of SRAM and NV ways;
//   - EagerWB: write-back with bus-idle cleaning (§7);
//   - ReplayCache: volatile write-back with region-level persistence;
//   - BrokenVolatileWB: the unsafe negative control.
//
// They are built from three shared pieces: wbCache, the write-back
// access path; wtCache, the write-through one; and regJIT, the
// register-only JIT checkpoint of designs that keep no volatile cache
// state across an outage. Every line lives in a cache.Array.
//
// All designs implement the simulator's Design interface; value
// correctness flows through the same cache/NVM substrates as
// WL-Cache, so the crash-consistency tests exercise every design
// identically.
package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// regJIT is the JIT checkpoint of a design whose cache holds nothing
// that must survive an outage: power failure saves the register file
// to NVFF and boot reloads it. Designs that boot cold invalidate their
// array before calling Restore.
type regJIT struct {
	jit energy.JITCosts
}

// Checkpoint persists the register file to NVFF.
func (r regJIT) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	eb.Checkpoint += r.jit.RegCheckpointEnergy
	return now + r.jit.RegCheckpointTime, eb
}

// Restore reloads registers from NVFF.
func (r regJIT) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	eb.Restore += r.jit.RestoreEnergy
	return now + r.jit.RestoreTime, eb
}

// ReserveEnergy covers registers only.
func (r regJIT) ReserveEnergy() float64 { return r.jit.BaseReserve }

// NoCache is the baseline non-volatile processor (Figure 1(a)): no
// cache at all; every load/store is a synchronous NVM word access.
// With no cache, its JIT checkpoint covers only the register file.
type NoCache struct {
	regJIT
	nvm *mem.NVM
}

// NewNoCache returns the cacheless NVP design.
func NewNoCache(jit energy.JITCosts, nvm *mem.NVM) *NoCache {
	return &NoCache{regJIT: regJIT{jit}, nvm: nvm}
}

// Name identifies the design.
func (d *NoCache) Name() string { return "NoCache" }

// Access forwards every operation to the NVM.
func (d *NoCache) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *NoCache) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	if op == isa.OpLoad {
		v, done, e := d.nvm.ReadWord(now, addr)
		eb.MemRead += e
		return v, done
	}
	done, e := d.nvm.WriteWord(now, addr, val)
	eb.MemWrite += e
	return val, done
}

// LeakPower is zero: no cache array.
func (d *NoCache) LeakPower() float64 { return 0 }

// DurableEqual: NVM is always architecturally current.
func (d *NoCache) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
