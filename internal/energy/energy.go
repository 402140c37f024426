// Package energy models the energy subsystem of a battery-less device:
// a capacitor energy buffer (E = ½CV²), the Von/Vbackup/Vmin voltage
// thresholds that gate execution and JIT checkpointing, and an energy
// accounting breakdown used by the §6.7 analysis.
package energy

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnderVoltage reports that a draw discharged the capacitor below
// the operating floor it was supposed to respect. Outside the JIT
// checkpoint window the voltage must never fall below VMin: crossing
// it means the energy model skipped the Vbackup band entirely (an
// injected fault or a mis-sized reserve), and continuing would produce
// nonsense voltages. Callers classify with errors.Is.
var ErrUnderVoltage = errors.New("energy: voltage fell below operating floor")

// Breakdown tallies consumed energy (joules) by subsystem, mirroring
// the categories of Figure 13(b).
type Breakdown struct {
	CacheRead  float64
	CacheWrite float64
	MemRead    float64
	MemWrite   float64
	Compute    float64
	Checkpoint float64
	Restore    float64
	Leak       float64
}

// Total returns the sum over all categories. It reads through a
// pointer: a by-value copy reloads the struct with 16-byte loads that
// straddle fields the caller has just stored, which defeats
// store-to-load forwarding on the exact tier's per-event path.
func (b *Breakdown) Total() float64 {
	return b.CacheRead + b.CacheWrite + b.MemRead + b.MemWrite + b.Compute + b.Checkpoint + b.Restore + b.Leak
}

// Add accumulates *o into b, field by field.
func (b *Breakdown) Add(o *Breakdown) {
	b.CacheRead += o.CacheRead
	b.CacheWrite += o.CacheWrite
	b.MemRead += o.MemRead
	b.MemWrite += o.MemWrite
	b.Compute += o.Compute
	b.Checkpoint += o.Checkpoint
	b.Restore += o.Restore
	b.Leak += o.Leak
}

// Capacitor is the harvested-energy buffer. Voltage is the state
// variable; energy moves in and out only through Step.
type Capacitor struct {
	c    float64 // farads
	v    float64 // volts
	vMin float64
	vMax float64
}

// NewCapacitor returns a capacitor of c farads charged to vMax, with
// operating floor vMin (hardware brown-out) and ceiling vMax.
func NewCapacitor(c, vMin, vMax float64) *Capacitor {
	if c <= 0 || vMin < 0 || vMax <= vMin {
		panic(fmt.Sprintf("energy: invalid capacitor c=%g vMin=%g vMax=%g", c, vMin, vMax))
	}
	return &Capacitor{c: c, v: vMax, vMin: vMin, vMax: vMax}
}

// Capacitance returns C in farads.
func (c *Capacitor) Capacitance() float64 { return c.c }

// Voltage returns the present voltage.
func (c *Capacitor) Voltage() float64 { return c.v }

// VMin and VMax return the operating bounds.
func (c *Capacitor) VMin() float64 { return c.vMin }

// VMax returns the voltage ceiling.
func (c *Capacitor) VMax() float64 { return c.vMax }

// SetVoltage forces the voltage (initialization/boot), clamped to
// [0, vMax].
func (c *Capacitor) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	}
	if v > c.vMax {
		v = c.vMax
	}
	c.v = v
}

// Energy returns the stored energy above 0 V.
func (c *Capacitor) Energy() float64 { return 0.5 * c.c * c.v * c.v }

// EnergyAbove returns the stored energy available before the voltage
// would fall to vFloor (0 if already below).
func (c *Capacitor) EnergyAbove(vFloor float64) float64 {
	if c.v <= vFloor {
		return 0
	}
	return 0.5 * c.c * (c.v*c.v - vFloor*vFloor)
}

// UnderVoltageError formats the ErrUnderVoltage for a draw of e joules
// that left the capacitor below vFloor. The simulator reports it both
// for a failed guarded Step and for the fast tier's energy-space floor
// check, so the message is identical on both tiers.
func (c *Capacitor) UnderVoltageError(e, vFloor float64) error {
	return fmt.Errorf("%w: %.4f V after drawing %.3g J (floor %.4f V)",
		ErrUnderVoltage, c.v, e, vFloor)
}

// Step applies one simulation event: harvest h joules, clamping at
// vMax (excess harvest is shed, as in a real regulator), then draw e
// joules, clamping at zero. The capacitor does not know the operating
// thresholds; the voltage monitor does. Step reports false when guard
// is set and the resulting voltage fell below vFloor; the draw is
// applied either way (the energy is physically gone), and the caller
// fails loudly with UnderVoltageError instead of running on with a
// nonsense voltage. Checkpoint-phase steps, which legitimately spend
// the reserve band down to VMin, pass guard=false.
func (c *Capacitor) Step(h, e, vFloor float64, guard bool) bool {
	if h < 0 || e < 0 {
		panic("energy: negative harvest or draw")
	}
	v := math.Sqrt(c.v*c.v + 2*h/c.c)
	if v > c.vMax {
		v = c.vMax
	}
	rem := v*v - 2*e/c.c
	if rem <= 0 {
		v = 0
	} else {
		v = math.Sqrt(rem)
	}
	c.v = v
	return !guard || v >= vFloor-1e-9
}

// JITCosts are the fixed costs of the JIT checkpoint/restore machinery
// shared by every NVP-style design: persisting the register file (and
// for WL-Cache the maxline/waterline/timer NVFFs, §5.5) and waking the
// system back up. Times are picoseconds, energies joules.
type JITCosts struct {
	RegCheckpointTime   int64
	RegCheckpointEnergy float64
	RestoreTime         int64
	RestoreEnergy       float64
	// BaseReserve is the energy reserved for the fixed part of a JIT
	// checkpoint (registers, thresholds, control) independent of any
	// cache flushing.
	BaseReserve float64
}

// DefaultJITCosts returns NVFF-based checkpoint costs in line with
// published non-volatile processors (~us-scale wake-up).
func DefaultJITCosts() JITCosts {
	return JITCosts{
		RegCheckpointTime:   500_000, // 0.5 us
		RegCheckpointEnergy: 30e-9,
		RestoreTime:         1_000_000, // 1 us
		RestoreEnergy:       50e-9,
		BaseReserve:         150e-9,
	}
}

// VbackupFor computes the JIT-checkpointing voltage threshold that
// reserves at least reserve joules above vMin on a capacitor of c
// farads: Vbackup = sqrt(vMin² + 2·reserve/C), clamped to
// [vMin, vMax]. This is the sizing rule of §3.2/§5.5: once maxline is
// (re)configured, Vbackup is adjusted so the bounded set of dirty
// lines (plus registers and DirtyQueue thresholds) can always be
// checkpointed failure-atomically.
func VbackupFor(cFarads, vMin, vMax, reserve float64) float64 {
	v := math.Sqrt(vMin*vMin + 2*reserve/cFarads)
	return math.Min(math.Max(v, vMin), vMax)
}
