package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// wtCache is the write-through, no-write-allocate array logic shared
// by VCache-WT and WT-Buffer: loads fill the array from NVM, stores
// update a cached copy in place, and NVM holds every store, so no line
// is ever dirty. Each design adds its own replacement energy and
// sends stores to NVM its own way.
type wtCache struct {
	arr   *cache.Array
	tech  cache.Tech
	nvm   *mem.NVM
	replE float64 // tech.ReplacementEnergy[policy], hoisted off the access path
}

func newWTCache(geo cache.Geometry, tech cache.Tech, pol cache.ReplacementPolicy, nvm *mem.NVM) wtCache {
	return wtCache{
		arr:   cache.NewArray(geo, pol),
		tech:  tech,
		nvm:   nvm,
		replE: tech.ReplacementEnergy[pol],
	}
}

// Array exposes the cache array for tests.
func (c *wtCache) Array() *cache.Array { return c.arr }

// load finds the line holding addr from time t, filling it from NVM on
// a miss (filled). done is when the word is available.
func (c *wtCache) load(t int64, addr uint32, eb *energy.Breakdown) (ln *cache.Line, done int64, filled bool) {
	if ln, hit := c.arr.Lookup(addr); hit {
		c.arr.Touch(ln)
		eb.CacheRead += c.tech.ReadEnergy
		return ln, t + c.tech.HitLatency, false
	}
	t += c.tech.ProbeLatency
	eb.CacheRead += c.tech.ProbeEnergy
	lineAddr := c.arr.LineAddr(addr)
	ln = c.arr.Victim(lineAddr)
	c.arr.Fill(ln, lineAddr)
	done, e := c.nvm.ReadLine(t, lineAddr, ln.Data)
	eb.MemRead += e
	return ln, done, true
}

// update writes val into the cached copy of addr, if any (no
// allocation on a miss), and returns when the array is done.
func (c *wtCache) update(t int64, addr, val uint32, eb *energy.Breakdown) int64 {
	if ln, hit := c.arr.Lookup(addr); hit {
		ln.Data[c.arr.WordIndex(addr)] = val
		c.arr.Touch(ln)
		eb.CacheWrite += c.tech.WriteEnergy
		return t + c.tech.WriteLatency
	}
	eb.CacheWrite += c.tech.ProbeEnergy
	return t + c.tech.ProbeLatency
}

// VCacheWT is the volatile write-through SRAM cache (Figure 1(b),
// §2.3.1): loads enjoy SRAM hits, but every store synchronously
// updates NVM (no store buffer), so stores pay the NVM word-write
// latency.
type VCacheWT struct {
	wtCache
	// Crash consistency is free — the NVM is always current — so the
	// JIT checkpoint saves registers only. The cache comes up cold
	// after every outage.
	regJIT
}

// NewVCacheWT builds the write-through design (no-write-allocate).
func NewVCacheWT(geo cache.Geometry, tech cache.Tech, pol cache.ReplacementPolicy, jit energy.JITCosts, nvm *mem.NVM) *VCacheWT {
	return &VCacheWT{wtCache: newWTCache(geo, tech, pol, nvm), regJIT: regJIT{jit}}
}

// Name identifies the design.
func (d *VCacheWT) Name() string { return "VCache-WT" }

// Access serves loads from the cache and writes stores through to NVM.
func (d *VCacheWT) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *VCacheWT) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	eb.CacheRead += d.replE
	if op == isa.OpLoad {
		ln, done, _ := d.load(now, addr, eb)
		return ln.Data[d.arr.WordIndex(addr)], done
	}
	t := d.update(now, addr, val, eb)
	done, e := d.nvm.WriteWord(t, addr, val)
	eb.MemWrite += e
	return val, done
}

// Restore boots with a cold cache.
func (d *VCacheWT) Restore(now int64) (int64, energy.Breakdown) {
	d.arr.InvalidateAll()
	return d.regJIT.Restore(now)
}

// LeakPower is the SRAM array leakage.
func (d *VCacheWT) LeakPower() float64 { return d.tech.Leakage }

// DurableEqual: the NVM image alone must match.
func (d *VCacheWT) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
