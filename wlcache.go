// Package wlcache is the public API of the WL-Cache reproduction: a
// cycle-approximate simulator for cache architectures on battery-less
// energy-harvesting systems, implementing the ISCA'23 paper
// "Write-Light Cache for Energy Harvesting Systems" (Choi et al.)
// plus the baselines it is evaluated against.
//
// The three core concepts:
//
//   - A Kind names a cache design with its crash-consistency protocol
//     (WL-Cache and its adaptation variants, NVSRAM(ideal), NVCache-WB,
//     VCache-WT, ReplayCache, NoCache, ...), built with the paper's
//     default configuration over an NVM main memory model.
//
//   - A Simulator executes a program (any func(Machine) uint32)
//     against a design while modeling the capacitor energy buffer, a
//     harvested-power trace, JIT checkpointing at Vbackup, off-period
//     recharging and restore.
//
//   - Workloads are the paper's 23 MediaBench/MiBench kernels,
//     re-implemented to run against the simulated address space; you
//     can also write your own program against the Machine interface.
//
// Quick start:
//
//	cfg := wlcache.DefaultSimConfig()
//	cfg.Trace = wlcache.Trace(wlcache.Trace1)
//	sim, err := wlcache.NewSimulator(cfg, wlcache.KindWL)
//	...
//	res, err := sim.Run("mywork", func(m wlcache.Machine) uint32 { ... })
package wlcache

import (
	"fmt"

	"wlcache/internal/expt"
	"wlcache/internal/isa"
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// Machine is the execution substrate workload programs run on: loads,
// stores and ALU batches against the simulated address space.
type Machine = isa.Machine

// Kind names a cache design configuration.
type Kind = expt.Kind

// The buildable design kinds (§6.1, Table 1, §3.3, §7).
const (
	KindNoCache         Kind = expt.KindNoCache
	KindVCacheWT        Kind = expt.KindVCacheWT
	KindWTBuffer        Kind = expt.KindWTBuffer
	KindNVCache         Kind = expt.KindNVCache
	KindNVSRAM          Kind = expt.KindNVSRAM
	KindNVSRAMFull      Kind = expt.KindNVSRAMFull
	KindNVSRAMPractical Kind = expt.KindNVSRAMPractical
	KindEagerWB         Kind = expt.KindEagerWB
	KindReplay          Kind = expt.KindReplay
	// KindBroken is the negative control: a volatile write-back cache
	// with no JIT checkpointing, which silently corrupts memory across
	// power failures (see examples/crashconsistency).
	KindBroken Kind = expt.KindBroken
	// KindWL is WL-Cache with boot-time (static) adaptive thresholds;
	// KindWLFixed keeps maxline fixed and KindWLDyn also adapts at run
	// time.
	KindWL      Kind = expt.KindWL
	KindWLFixed Kind = expt.KindWLFixed
	KindWLDyn   Kind = expt.KindWLDyn
)

// Result collects everything a simulation run produces.
type Result = sim.Result

// SimConfig is the machine/energy configuration (Table 2).
type SimConfig = sim.Config

// Simulator drives a program through a design under a power trace.
type Simulator = sim.Simulator

// PowerTrace is a piecewise-constant harvested-power signal.
type PowerTrace = power.Trace

// Source names a built-in power trace.
type Source = power.Source

// Workload is one of the paper's 23 benchmark kernels.
type Workload = workload.Workload

// Built-in power sources (paper §6.1, §6.6).
const (
	NoFailures Source = power.None
	Trace1     Source = power.Trace1
	Trace2     Source = power.Trace2
	Trace3     Source = power.Trace3
	Solar      Source = power.Solar
	Thermal    Source = power.Thermal
)

// DefaultSimConfig returns the Table 2 machine configuration with no
// power trace attached (uninterrupted power).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Trace returns the built-in trace for a source (nil for NoFailures).
func Trace(src Source) *PowerTrace { return power.Get(src) }

// NewSimulator builds a simulator over a fresh design of the given
// kind, in the paper's default configuration, and a fresh NVM main
// memory with the paper's ReRAM timing.
func NewSimulator(cfg SimConfig, kind Kind) (*Simulator, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("wlcache: unknown design kind %q", kind)
	}
	design, nvm := expt.NewDesign(kind, expt.Options{})
	return sim.New(cfg, design, nvm)
}

// Workloads returns the paper's 23 benchmarks in figure order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one benchmark kernel.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }
