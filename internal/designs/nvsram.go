package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/stats"
)

// NVSRAMParams sizes the per-line costs of the non-volatile twin
// array used for JIT checkpointing and warm restore.
type NVSRAMParams struct {
	LineCheckpointTime   int64   // ps per line copied SRAM -> NV twin
	LineCheckpointEnergy float64 // J per line
	LineRestoreTime      int64   // ps per line copied NV twin -> SRAM
	LineRestoreEnergy    float64 // J per line
	// LineReserve is the worst-case energy reserved per line for the
	// JIT checkpoint (adjacent per-cell twin writes are cheaper than
	// WL-Cache's off-array NVM flushes, but every line must be
	// covered).
	LineReserve float64
	TwinLeak    float64 // extra leakage of the NV twin, W
}

// DefaultNVSRAMParams returns on-chip ReRAM twin costs: the twin's
// cells are the same technology as main NVM, so a line checkpoint
// costs as much energy as a coalesced NVM line write, only faster
// (no off-chip bus).
func DefaultNVSRAMParams() NVSRAMParams {
	return NVSRAMParams{
		LineCheckpointTime:   20_000, // 20 ns
		LineCheckpointEnergy: 3.0e-9,
		LineRestoreTime:      30_000, // 30 ns (read twin + write SRAM)
		LineRestoreEnergy:    2.0e-9,
		LineReserve:          7.0e-9,
		TwinLeak:             0.2e-3,
	}
}

// NVSRAM is the state-of-the-art baseline, NVSRAMCache (ideal)
// (Figure 1(d), §2.3.3): a volatile write-back SRAM cache backed by a
// same-size non-volatile twin. At power failure it "magically"
// checkpoints only the dirty lines into the twin; at boot the whole
// cache is restored warm. Because *every* line could be dirty, the
// energy reserve must cover checkpointing the entire cache, which is
// the design's Achilles heel under frequent outages.
type NVSRAM struct {
	wbCache
	jit    energy.JITCosts
	params NVSRAMParams
	extra  stats.DesignExtra
}

// NewNVSRAM builds the ideal NVSRAM design.
func NewNVSRAM(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, params NVSRAMParams, nvm *mem.NVM) *NVSRAM {
	return &NVSRAM{wbCache: newWBCache(geo, cache.SRAMTech(), pol, nvm), jit: jit, params: params}
}

// Name identifies the design.
func (d *NVSRAM) Name() string { return "NVSRAM(ideal)" }

// Access is a conventional write-back access at SRAM speed.
func (d *NVSRAM) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// Checkpoint copies every dirty line into the NV twin (ideal variant:
// dirty lines only) plus the register file. Lines stay in the SRAM
// array — and stay dirty with respect to main NVM — because the twin,
// not main memory, holds the durable copy.
func (d *NVSRAM) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	dirty := d.arr.DirtyCount()
	t += int64(dirty) * d.params.LineCheckpointTime
	eb.Checkpoint += float64(dirty) * d.params.LineCheckpointEnergy
	d.extra.CheckpointLines += uint64(dirty)
	t += d.jit.RegCheckpointTime
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return t, eb
}

// Restore reloads the SRAM array from the NV twin: the cache boots
// warm, at a per-line cost.
func (d *NVSRAM) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	valid := 0
	d.arr.ForEachLine(func(addr uint32, ln *cache.Line) { valid++ })
	t := now + int64(valid)*d.params.LineRestoreTime
	eb.Restore += float64(valid) * d.params.LineRestoreEnergy
	t += d.jit.RestoreTime
	eb.Restore += d.jit.RestoreEnergy
	return t, eb
}

// ReserveEnergy must cover the worst case: the entire cache dirty
// (§2.3.3) — this is what forces the high Vbackup of Table 2.
func (d *NVSRAM) ReserveEnergy() float64 {
	lines := float64(d.arr.Geometry().Lines())
	return d.jit.BaseReserve + lines*d.params.LineReserve
}

// LeakPower is SRAM leakage plus the idle NV twin.
func (d *NVSRAM) LeakPower() float64 { return d.tech.Leakage + d.params.TwinLeak }

// ExtraStats returns checkpoint counters.
func (d *NVSRAM) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual overlays the array (whose contents are durable via the
// twin) onto the NVM image.
func (d *NVSRAM) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), d.arr)
}
