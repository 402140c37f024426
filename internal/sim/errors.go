package sim

import (
	"errors"
	"fmt"
)

// Typed sentinel errors for the simulator's failure classes. Every
// fatal path out of Run wraps one of these (or returns a plain
// configuration error), so auditors — the fault-injection explorer in
// internal/fault in particular — can classify outcomes with errors.Is
// instead of matching message strings.
var (
	// ErrCrashConsistency marks a durability violation: the durable
	// image diverged from the architectural golden image after a
	// checkpoint, or a load returned a value that contradicts it.
	ErrCrashConsistency = errors.New("sim: crash consistency violated")

	// ErrNoProgress marks a run that stopped retiring instructions:
	// too many consecutive zero-progress outages, or the total outage
	// budget was exhausted.
	ErrNoProgress = errors.New("sim: no forward progress")

	// ErrReserveExhausted marks a JIT checkpoint that drew the
	// capacitor below VMin: the design's ReserveEnergy under-provisions
	// its own checkpoint.
	ErrReserveExhausted = errors.New("sim: checkpoint reserve exhausted")

	// ErrPanic marks a run whose program or design panicked: a kernel
	// indexing out of range with a value a broken design corrupted,
	// say. Run returns it as a *PanicError instead of crashing its
	// caller, and so does the sweep runner for a cell that panicked
	// outside Run.
	ErrPanic = errors.New("sim: run panicked")
)

// PanicError carries a recovered panic: the panic value and the stack
// of the panicking goroutine. It matches ErrPanic under
// errors.Is.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string        { return fmt.Sprintf("%v: %v", ErrPanic, e.Value) }
func (e *PanicError) Is(target error) bool { return target == ErrPanic }
