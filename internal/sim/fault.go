package sim

import (
	"wlcache/internal/mem"
	"wlcache/internal/obs"
)

// FaultPlan is the crash-schedule hook that lets a fault injector
// (internal/fault) drive the simulator off the happy path. A plan can
// force a power failure at any instruction boundary — not just when
// the capacitor reaches Vbackup — and is told when each JIT checkpoint
// begins and ends so NVM-level injectors (torn line writes) can tell
// checkpoint traffic from regular write-backs.
//
// All hooks run on the simulator's goroutine; implementations must be
// deterministic for reproducible audits.
type FaultPlan interface {
	// Arm installs the plan's hooks on the run's NVM and design. New
	// calls it once, after binding Config.Obs, and passes that
	// recorder (nil when the run is not recorded).
	Arm(nvm *mem.NVM, d Design, rec *obs.Recorder)

	// ShouldCrash is consulted at every instruction boundary (after
	// each memory access and after each compute chunk). Returning true
	// forces an immediate power failure regardless of the capacitor
	// voltage. The design still runs its JIT checkpoint — the voltage
	// monitor fires before the supply actually collapses — but
	// injectors may tear the checkpoint's own NVM writes.
	ShouldCrash(instr uint64, now int64) bool

	// CheckpointStart and CheckpointEnd bracket every JIT checkpoint,
	// including the final shutdown flush. forced is true when the
	// checkpoint was triggered by ShouldCrash rather than by the
	// voltage monitor or the shutdown path.
	CheckpointStart(now int64, forced bool)
	CheckpointEnd(now int64)
}
