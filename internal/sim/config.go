// Package sim is the execution engine: it drives a workload program
// through a cache Design while integrating harvested and consumed
// energy over a power trace, triggering JIT checkpoints when the
// capacitor voltage falls to Vbackup, modeling the off-period
// recharge, and collecting the statistics the paper's evaluation
// reports.
package sim

import (
	"fmt"

	"wlcache/internal/energy"
	"wlcache/internal/obs"
	"wlcache/internal/power"
)

// Tier selects the engine's fidelity/performance trade-off. The zero
// value is the exact tier, so existing configurations are unchanged.
type Tier int

const (
	// TierExact reproduces results bit-for-bit: every floating-point
	// operation happens in the committed order, and the 78-cell golden
	// pins each Result field down to the last ULP.
	TierExact Tier = iota
	// TierFast batches events into settle windows under a committed
	// tolerance (see expt.CompareGoldenCellsTol and DESIGN.md §16):
	// capacitor state is kept in energy space, harvest integration is
	// batched between power-relevant events behind a conservative draw
	// budget, and Compute blocks are fused. Event counts (outages, write-backs,
	// checkpoints, instructions, traffic) stay exactly equal to the
	// exact tier; energies and phase times are ε-equal, not bit-equal.
	TierFast
)

// String returns the canonical spelling used by CLI flags, JSON
// reports and cell fingerprints.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierFast:
		return "fast"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier parses the canonical spelling. The empty string maps to
// TierExact so formats that predate tiers keep their meaning.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "exact":
		return TierExact, nil
	case "fast":
		return TierFast, nil
	default:
		return TierExact, fmt.Errorf("sim: unknown tier %q (want exact or fast)", s)
	}
}

// Config holds the machine-level simulation parameters (Table 2 plus
// the energy constants this reproduction documents here).
type Config struct {
	// CyclePS is the CPU cycle time in picoseconds (1 GHz → 1000).
	CyclePS int64
	// InstrEnergy is the core energy per executed instruction (J).
	InstrEnergy float64
	// ComputeChunk bounds how many pure-ALU instructions execute
	// between voltage checks (the voltage monitor's granularity).
	ComputeChunk int

	// Capacitor and voltage thresholds (Table 2).
	CapacitorF float64
	VMin       float64
	VMax       float64
	// VonDelta sets the restore threshold Von = Vbackup + VonDelta
	// (clamped to VMax): the system reboots only after recharging past
	// the backup threshold by this margin.
	VonDelta float64

	// OnHarvestEff derates harvesting while the load runs: the
	// frontend cannot charge the buffer at full efficiency while the
	// regulator serves the core (off-period charging is unaffected).
	OnHarvestEff float64

	// Trace is the harvested-power input; nil means uninterrupted
	// power ("no power failure" runs).
	Trace *power.Trace

	// ICache optionally models the L1 instruction cache (Table 2).
	// nil folds instruction fetch into the pipeline cost (the default;
	// see ICacheModel for when the distinction matters).
	ICache *ICacheModel

	// CheckInvariants enables the expensive correctness checks: every
	// load is compared against the architectural golden image and
	// every checkpoint is followed by a whole-system persistence
	// check. Tests enable it; benchmarks do not.
	CheckInvariants bool

	// MaxOutages aborts runaway simulations (0 = default limit).
	MaxOutages uint64

	// FaultPlan optionally injects crashes at instruction boundaries
	// and observes checkpoint windows (internal/fault). New arms it on
	// the run's NVM and design. nil disables injection; forced crashes
	// work with or without a power trace.
	FaultPlan FaultPlan

	// Obs optionally records the run's cycle-level event timeline and
	// metrics (internal/obs). nil disables recording; every
	// instrumentation site then costs one nil check. New wires the
	// recorder into the NVM port and the design; the simulator samples
	// the capacitor voltage at every settle. Recording changes no
	// outcome and runs on either tier.
	Obs *obs.Recorder

	// Tier selects the event policy: exact (default) settles every
	// event alone in voltage space; fast batches events between settles
	// in energy space. Runs with a FaultPlan always take the exact
	// policy: a plan may crash the run at any event boundary, which the
	// fast window defers.
	Tier Tier
}

// DefaultConfig returns the paper's default machine configuration.
func DefaultConfig() Config {
	return Config{
		CyclePS:      1000, // 1 GHz in-order, 1 instr/cycle
		InstrEnergy:  20e-12,
		ComputeChunk: 256,
		CapacitorF:   1e-6, // 1 uF
		VMin:         2.8,
		VMax:         3.5,
		VonDelta:     0.4,
		OnHarvestEff: 0.5,
	}
}

// Vbackup derives the JIT-checkpointing threshold for a design
// reserve under this configuration.
func (c Config) Vbackup(reserve float64) float64 {
	return energy.VbackupFor(c.CapacitorF, c.VMin, c.VMax, reserve)
}

// Von derives the reboot threshold for a given Vbackup.
func (c Config) Von(vbackup float64) float64 {
	v := vbackup + c.VonDelta
	if v > c.VMax {
		v = c.VMax
	}
	return v
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CyclePS <= 0:
		return fmt.Errorf("sim: CyclePS must be positive")
	case c.ComputeChunk <= 0:
		return fmt.Errorf("sim: ComputeChunk must be positive")
	case c.CapacitorF <= 0 || c.VMin <= 0 || c.VMax <= c.VMin:
		return fmt.Errorf("sim: invalid capacitor configuration")
	case c.VonDelta <= 0:
		return fmt.Errorf("sim: VonDelta must be positive")
	case c.Tier != TierExact && c.Tier != TierFast:
		return fmt.Errorf("sim: unknown tier %d", int(c.Tier))
	}
	return nil
}
