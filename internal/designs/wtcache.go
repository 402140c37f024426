package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// VCacheWT is the volatile write-through SRAM cache (Figure 1(b),
// §2.3.1): loads enjoy SRAM hits, but every store synchronously
// updates NVM (no store buffer), so stores pay the NVM word-write
// latency. Crash consistency is free — the NVM is always current —
// and only registers need JIT checkpointing. The cache comes up cold
// after every outage.
type VCacheWT struct {
	arr   *cache.Array
	tech  cache.Tech
	nvm   *mem.NVM
	jit   energy.JITCosts
	replE float64 // tech.ReplacementEnergy[policy], hoisted off the access path
}

// NewVCacheWT builds the write-through design (no-write-allocate).
func NewVCacheWT(geo cache.Geometry, tech cache.Tech, pol cache.ReplacementPolicy, jit energy.JITCosts, nvm *mem.NVM) *VCacheWT {
	return &VCacheWT{
		arr:   cache.NewArray(geo, pol),
		tech:  tech,
		nvm:   nvm,
		jit:   jit,
		replE: tech.ReplacementEnergy[pol],
	}
}

// Name identifies the design.
func (d *VCacheWT) Name() string { return "VCache-WT" }

// Array exposes the cache array for tests.
func (d *VCacheWT) Array() *cache.Array { return d.arr }

// Access serves loads from the cache and writes stores through to NVM.
func (d *VCacheWT) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *VCacheWT) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	eb.CacheRead += d.replE
	lineAddr := d.arr.LineAddr(addr)
	ln, hit := d.arr.Lookup(addr)

	if op == isa.OpLoad {
		if hit {
			d.arr.Touch(ln)
			eb.CacheRead += d.tech.ReadEnergy
			return ln.Data[d.arr.WordIndex(addr)], now + d.tech.HitLatency
		}
		t := now + d.tech.ProbeLatency
		eb.CacheRead += d.tech.ProbeEnergy
		ln = d.arr.Victim(lineAddr)
		d.arr.Fill(ln, lineAddr)
		done, e := d.nvm.ReadLine(t, lineAddr, ln.Data)
		eb.MemRead += e
		return ln.Data[d.arr.WordIndex(addr)], done
	}

	// Store: update the cached copy on a hit (no-write-allocate on a
	// miss) and always write NVM synchronously.
	t := now
	if hit {
		ln.Data[d.arr.WordIndex(addr)] = val
		d.arr.Touch(ln)
		eb.CacheWrite += d.tech.WriteEnergy
		t += d.tech.WriteLatency
	} else {
		eb.CacheWrite += d.tech.ProbeEnergy
		t += d.tech.ProbeLatency
	}
	done, e := d.nvm.WriteWord(t, addr, val)
	eb.MemWrite += e
	return val, done
}

// Checkpoint persists registers only: the write-through policy keeps
// NVM current at all times.
func (d *VCacheWT) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return now + d.jit.RegCheckpointTime, eb
}

// Restore boots with a cold cache.
func (d *VCacheWT) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	d.arr.InvalidateAll()
	eb.Restore += d.jit.RestoreEnergy
	return now + d.jit.RestoreTime, eb
}

// ReserveEnergy covers registers only.
func (d *VCacheWT) ReserveEnergy() float64 { return d.jit.BaseReserve }

// LeakPower is the SRAM array leakage.
func (d *VCacheWT) LeakPower() float64 { return d.tech.Leakage }

// DurableEqual: the NVM image alone must match.
func (d *VCacheWT) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
