package designs

import (
	"fmt"

	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/stats"
)

// ReplayParams sizes the ReplayCache model.
type ReplayParams struct {
	// RegionStores is the persistence-region granularity expressed in
	// stores: after this many stores the compiler-inserted region
	// boundary waits for all outstanding NVM persists to drain.
	RegionStores int
	// InstrTime/InstrEnergy cost the re-executed instructions after a
	// power failure (the region in flight at the failure is replayed).
	InstrTime   int64
	InstrEnergy float64
}

// DefaultReplayParams returns region sizing in line with the paper's
// description of region-level persistence.
func DefaultReplayParams() ReplayParams {
	return ReplayParams{RegionStores: 4, InstrTime: 1000, InstrEnergy: 20e-12}
}

// ReplayCache models ReplayCache [Zeng et al., MICRO'21] (§6.1): a
// volatile write-back SRAM cache whose compiler persists every store
// to NVM asynchronously at region granularity. Stores complete at
// SRAM speed while the NVM persist proceeds in the background; at
// each region boundary execution waits for outstanding persists; at a
// power failure nothing needs checkpointing beyond registers — the
// interrupted region is simply re-executed after reboot, which this
// model charges as a restore-time penalty equal to the work since the
// last completed region boundary.
type ReplayCache struct {
	wbCache
	// Power failure saves registers only (Table 1: "Small" buffer):
	// pending region work is abandoned, and Restore charges its
	// re-execution.
	regJIT
	params ReplayParams

	storesInRegion  int
	lastBarrierTime int64
	lastEventTime   int64
	extra           stats.DesignExtra
	rec             *obs.Recorder
}

// BindObserver wires the recorder so region-boundary drains land on
// the event timeline (sim.ObserverBinder).
func (d *ReplayCache) BindObserver(r *obs.Recorder) { d.rec = r }

// NewReplayCache builds the ReplayCache model. It panics on a region
// of no stores (a configuration bug).
func NewReplayCache(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, params ReplayParams, nvm *mem.NVM) *ReplayCache {
	if params.RegionStores <= 0 {
		panic(fmt.Sprintf("designs: ReplayCache needs at least one store per region, got %d", params.RegionStores))
	}
	return &ReplayCache{wbCache: newWBCache(geo, cache.SRAMTech(), pol, nvm), regJIT: regJIT{jit}, params: params}
}

// Name identifies the design.
func (d *ReplayCache) Name() string { return "ReplayCache" }

// Access performs the write-back access; stores additionally enqueue
// an asynchronous NVM word persist, and every RegionStores-th store
// ends the region: execution drains the NVM port.
func (d *ReplayCache) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *ReplayCache) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	var v uint32
	var done int64
	if op == isa.OpLoad {
		v, done = d.wbCache.AccessEB(now, op, addr, val, eb)
	} else {
		// Stores are persisted through to NVM, so there is no point
		// allocating on a miss, and a cached copy is updated in place
		// but left clean (no eviction write-back will ever be needed).
		v, done = val, now
		eb.CacheWrite += d.replE
		if ln, ok := d.arr.Lookup(addr); ok {
			ln.Data[d.arr.WordIndex(addr)] = val
			ln.Dirty = false
			d.arr.Touch(ln)
			eb.CacheWrite += d.tech.WriteEnergy
			done += d.tech.WriteLatency
		} else {
			eb.CacheWrite += d.tech.ProbeEnergy
			done += d.tech.ProbeLatency
		}
		// Asynchronous persist: occupies the NVM port but does not
		// extend the store's completion time.
		_, e := d.nvm.WriteWordAsync(done, addr, val)
		eb.MemWrite += e
		d.storesInRegion++
		if d.storesInRegion >= d.params.RegionStores {
			// Region boundary: wait for every outstanding persist.
			if busy := d.nvm.BusyUntil(); busy > done {
				d.extra.StallTime += busy - done
				d.extra.Stalls++
				d.rec.StoreStall(done, busy, d.arr.LineAddr(addr))
				done = busy
			}
			d.storesInRegion = 0
			d.lastBarrierTime = done
		}
	}
	d.lastEventTime = done
	return v, done
}

// Restore boots cold and charges the re-execution of the interrupted
// region (time plus compute energy).
func (d *ReplayCache) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	d.arr.InvalidateAll()
	penalty := d.lastEventTime - d.lastBarrierTime
	if penalty < 0 {
		penalty = 0
	}
	// Cap at one full region of straight-line execution to keep the
	// model sane when stores are sparse.
	if maxPen := int64(d.params.RegionStores) * 50 * d.params.InstrTime; penalty > maxPen {
		penalty = maxPen
	}
	eb.Restore += d.jit.RestoreEnergy + float64(penalty/d.params.InstrTime)*d.params.InstrEnergy
	done := now + d.jit.RestoreTime + penalty
	d.storesInRegion = 0
	d.lastBarrierTime = done
	d.lastEventTime = done
	return done, eb
}

// LeakPower is the SRAM array leakage.
func (d *ReplayCache) LeakPower() float64 { return d.tech.Leakage }

// ExtraStats returns barrier counters.
func (d *ReplayCache) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual: every store was persisted to the NVM image at issue
// time (re-execution would regenerate any in-flight tail), so the
// image alone must match.
func (d *ReplayCache) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
