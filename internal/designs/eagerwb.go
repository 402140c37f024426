package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/stats"
)

// EagerWB models the eager write-back cache of Lee et al. [32]
// (§7, Table 3): a volatile write-back cache that opportunistically
// flushes dirty lines whenever the memory bus is idle. The paper's
// point is that eager write-back alone does not make a cache safe for
// energy harvesting: the dirty population is *opportunistically*
// small but never bounded, so the JIT reserve must still cover the
// entire cache — exactly NVSRAM's energy-buffer problem, but with the
// checkpoint going to slow main NVM instead of an adjacent twin.
// WL-Cache's maxline turns the same eager-cleaning idea into a hard
// bound, which is what shrinks the reserve.
type EagerWB struct {
	wbCache
	// Past the dirty-line flush, the JIT checkpoint saves registers
	// only, and the cache comes up cold after every outage.
	regJIT
	// lineReserve is the worst-case per-line checkpoint energy (full
	// NVM line write, as for WL-Cache).
	lineReserve float64
	// idleWindow is how long the NVM port must be idle before an
	// opportunistic flush is issued.
	idleWindow int64
	extra      stats.DesignExtra
}

// NewEagerWB builds the eager write-back design.
func NewEagerWB(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, nvm *mem.NVM) *EagerWB {
	return &EagerWB{
		wbCache:     newWBCache(geo, cache.SRAMTech(), pol, nvm),
		regJIT:      regJIT{jit},
		lineReserve: 75e-9,
		idleWindow:  200_000, // 200 ns of bus idleness
	}
}

// Name identifies the design.
func (d *EagerWB) Name() string { return "EagerWB" }

// Access performs the write-back access and, when the NVM port has
// been idle for a while, opportunistically flushes one dirty line.
func (d *EagerWB) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *EagerWB) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	// Bus idleness is judged before this access touches the port.
	idle := now-d.nvm.BusyUntil() >= d.idleWindow
	v, done := d.wbCache.AccessEB(now, op, addr, val, eb)
	if idle {
		d.flushOne(done, eb)
	}
	return v, done
}

// flushOne writes back the first dirty line found (bus-idle flush).
func (d *EagerWB) flushOne(now int64, eb *energy.Breakdown) {
	var target *cache.Line
	var targetAddr uint32
	d.arr.ForEachLine(func(addr uint32, ln *cache.Line) {
		if target == nil && ln.Dirty {
			target, targetAddr = ln, addr
		}
	})
	if target == nil {
		return
	}
	_, e := d.nvm.WriteLineAsync(now, targetAddr, target.Data)
	eb.MemWrite += e
	target.Dirty = false
	d.extra.Writebacks++
}

// Checkpoint flushes every remaining dirty line to main NVM — there
// is no bound, so this can be the whole cache.
func (d *EagerWB) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	d.arr.ForEachLine(func(addr uint32, ln *cache.Line) {
		if ln.Dirty {
			done, e := d.nvm.WriteLine(t, addr, ln.Data)
			eb.Checkpoint += e
			t = done
			ln.Dirty = false
			d.extra.CheckpointLines++
		}
	})
	t += d.jit.RegCheckpointTime
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return t, eb
}

// Restore boots cold.
func (d *EagerWB) Restore(now int64) (int64, energy.Breakdown) {
	d.arr.InvalidateAll()
	return d.regJIT.Restore(now)
}

// ReserveEnergy must cover every line: eager flushing gives no bound
// (the design's fatal flaw for energy harvesting, §7).
func (d *EagerWB) ReserveEnergy() float64 {
	return d.jit.BaseReserve + float64(d.arr.Geometry().Lines())*d.lineReserve
}

// LeakPower is the SRAM array leakage.
func (d *EagerWB) LeakPower() float64 { return d.tech.Leakage }

// ExtraStats returns flush counters.
func (d *EagerWB) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual: after a checkpoint the NVM image alone must match.
func (d *EagerWB) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
