package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/stats"
)

// NVSRAMFull is the original NVSRAMCache (Liu et al. [41], §2.3.3
// "full" variant): at power failure it copies the *entire* SRAM array
// into the non-volatile twin — valid or not, dirty or not — because
// it has no dirty tracking at the array interface. The reserve is the
// same as the ideal variant's (whole cache), but every checkpoint
// actually pays the whole-cache cost, which is what the ideal variant
// "magically" avoids.
type NVSRAMFull struct {
	wbCache
	jit    energy.JITCosts
	params NVSRAMParams
	extra  stats.DesignExtra
}

// NewNVSRAMFull builds the full-checkpoint NVSRAM design.
func NewNVSRAMFull(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, params NVSRAMParams, nvm *mem.NVM) *NVSRAMFull {
	return &NVSRAMFull{wbCache: newWBCache(geo, cache.SRAMTech(), pol, nvm), jit: jit, params: params}
}

// Name identifies the design.
func (d *NVSRAMFull) Name() string { return "NVSRAM(full)" }

// Array exposes the cache array for tests.
func (d *NVSRAMFull) Array() *cache.Array { return d.arr }

// Access is a conventional write-back access at SRAM speed.
func (d *NVSRAMFull) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// Checkpoint copies every line of the array — the defining cost of
// the full variant.
func (d *NVSRAMFull) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	lines := int64(d.arr.Geometry().Lines())
	t := now + lines*d.params.LineCheckpointTime
	eb.Checkpoint += float64(lines) * d.params.LineCheckpointEnergy
	d.extra.CheckpointLines += uint64(lines)
	t += d.jit.RegCheckpointTime
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return t, eb
}

// Restore reloads the whole array from the twin: warm cache.
func (d *NVSRAMFull) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	lines := int64(d.arr.Geometry().Lines())
	t := now + lines*d.params.LineRestoreTime + d.jit.RestoreTime
	eb.Restore += float64(lines)*d.params.LineRestoreEnergy + d.jit.RestoreEnergy
	return t, eb
}

// ReserveEnergy covers the whole cache, as for the ideal variant.
func (d *NVSRAMFull) ReserveEnergy() float64 {
	lines := float64(d.arr.Geometry().Lines())
	return d.jit.BaseReserve + lines*d.params.LineReserve
}

// LeakPower is SRAM plus the idle twin.
func (d *NVSRAMFull) LeakPower() float64 { return d.tech.Leakage + d.params.TwinLeak }

// ExtraStats returns checkpoint counters.
func (d *NVSRAMFull) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual overlays the (twin-backed) array onto the NVM image.
func (d *NVSRAMFull) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), d.arr)
}
