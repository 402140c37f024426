package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/mem"
)

// NVSRAMFull is the original NVSRAMCache (Liu et al. [41], §2.3.3
// "full" variant): at power failure it copies the *entire* SRAM array
// into the non-volatile twin — valid or not, dirty or not — because
// it has no dirty tracking at the array interface. The reserve is the
// same as the ideal variant's (whole cache), but every checkpoint
// actually pays the whole-cache cost, which is what the ideal variant
// "magically" avoids. Everything but the checkpoint and the restore is
// the ideal variant's.
type NVSRAMFull struct {
	NVSRAM
}

// NewNVSRAMFull builds the full-checkpoint NVSRAM design.
func NewNVSRAMFull(geo cache.Geometry, pol cache.ReplacementPolicy, jit energy.JITCosts, params NVSRAMParams, nvm *mem.NVM) *NVSRAMFull {
	return &NVSRAMFull{NVSRAM: *NewNVSRAM(geo, pol, jit, params, nvm)}
}

// Name identifies the design.
func (d *NVSRAMFull) Name() string { return "NVSRAM(full)" }

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
