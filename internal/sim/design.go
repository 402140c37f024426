package sim

import (
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/stats"
)

// Design is a cache organization together with its crash-consistency
// protocol. internal/core (WL-Cache) and internal/designs (baselines)
// implement it. Times are picoseconds; the simulator adds the 1-cycle
// pipeline cost and per-instruction core energy on top of what Access
// returns.
type Design interface {
	// Name identifies the design in results.
	Name() string
	// Access performs one memory operation beginning at now, returning
	// the loaded value (stores echo val), the completion time, and the
	// energy drawn by the memory hierarchy.
	Access(now int64, op isa.Op, addr uint32, val uint32) (v uint32, done int64, eb energy.Breakdown)
	// EBAccessor is the simulator's access path: Access with the
	// breakdown accumulated in place.
	EBAccessor
	// Checkpoint runs the design's JIT checkpoint at impending power
	// failure, returning its completion time and energy.
	Checkpoint(now int64) (done int64, eb energy.Breakdown)
	// Restore boots the design back up after an outage.
	Restore(now int64) (done int64, eb energy.Breakdown)
	// ReserveEnergy is the worst-case JIT checkpoint energy the system
	// must hold back; the simulator derives Vbackup from it. It may
	// change over time (adaptive WL-Cache).
	ReserveEnergy() float64
	// LeakPower is the standby power of the design's arrays while on.
	LeakPower() float64
	// DurableEqual verifies whole-system persistence against the
	// architectural golden image (invoked right after checkpoints when
	// invariant checking is enabled).
	DurableEqual(golden *mem.Store) error
}

// Rebooter is implemented by designs that reconfigure themselves at
// boot from the measured power-on history (adaptive WL-Cache, §4).
type Rebooter interface {
	// OnBoot delivers the power-on durations (ps) of the last two
	// completed intervals: lastOn = T(n-1), prevOn = T(n-2).
	OnBoot(lastOn, prevOn int64)
}

// ExtraStatser exposes design-specific counters (§6.6).
type ExtraStatser interface {
	ExtraStats() stats.DesignExtra
}

// EnergyProbeBinder is implemented by designs that need to ask the
// energy subsystem whether a larger reserve is affordable right now
// (WL-Cache dynamic adaptation).
type EnergyProbeBinder interface {
	BindEnergyProbe(func(newReserve float64) bool)
}

// EBAccessor is the simulator's one access path, and every Design
// has it: the design accumulates its energy breakdown into
// *eb (+= only, never a plain store) instead of returning the 64-byte
// struct by value, sparing one copy per simulated memory operation. *eb
// is zero on the exact policy, which settles each access alone, and
// holds the open settle window's sums on the fast one. Implementations
// must perform arithmetic identical to Access (every registered design
// implements Access as a thin wrapper over AccessEB).
type EBAccessor interface {
	AccessEB(now int64, op isa.Op, addr uint32, val uint32, eb *energy.Breakdown) (v uint32, done int64)
}

// ReserveNotifyBinder is implemented by designs whose ReserveEnergy
// changes while running (adaptive WL-Cache raising maxline). The
// simulator caches the Vbackup threshold between events and installs a
// callback here; the design must invoke it after every reserve change
// so the voltage monitor never compares against a stale threshold.
// (Boot-time changes are additionally covered by an unconditional
// refresh after OnBoot.)
type ReserveNotifyBinder interface {
	BindReserveChanged(func())
}

// ObserverBinder is implemented by designs that emit their own
// observability events (store stalls, write-back issue/ACK, DirtyQueue
// occupancy, threshold adaptation). The simulator binds Config.Obs at
// construction when it is set.
type ObserverBinder interface {
	BindObserver(*obs.Recorder)
}
