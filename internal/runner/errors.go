package runner

import (
	"errors"
	"fmt"
)

// Typed sentinel errors for the runner's failure classes; callers
// classify with errors.Is instead of matching message strings,
// mirroring the discipline internal/sim establishes for the simulator.
var (
	// ErrCellPanic marks a cell whose Run panicked. The panic is
	// recovered on the worker goroutine and isolated to the cell, so
	// one poisoned cell cannot take down a whole sweep.
	ErrCellPanic = errors.New("runner: cell panicked")

	// ErrSkipped marks a cell that never computed because the sweep
	// context was cancelled before a worker reached it, or while it
	// waited on another sweep's compute of the same cell.
	ErrSkipped = errors.New("runner: cell skipped")

	// ErrJournalCorrupt marks a journal whose interior (non-final)
	// records are unreadable. A torn *final* record is expected crash
	// damage and discarded silently; damage elsewhere is not something
	// an append-only writer can produce and aborts the sweep.
	ErrJournalCorrupt = errors.New("runner: journal corrupt")

	// ErrForeignEngine marks a journal of another engine version. None
	// of its addresses could be served under this engine, and it is
	// refused unmodified: whoever wrote it may still own it.
	ErrForeignEngine = errors.New("runner: journal of another engine version")
)

// CellError attributes a failure to one cell of a sweep, by index and
// human-readable identity. It wraps the underlying cause, so
// errors.Is(err, sim.ErrCrashConsistency) etc. see through it.
type CellError struct {
	Index int    // position in the submitted cell slice
	ID    string // the cell's ID (e.g. "nvsram/sha/tr1")
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %s: %v", e.ID, e.Err) }
func (e *CellError) Unwrap() error { return e.Err }

// PanicError carries a recovered cell panic: the panic value and the
// stack of the worker goroutine at recovery time. It matches
// ErrCellPanic under errors.Is.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string        { return fmt.Sprintf("%v: %v", ErrCellPanic, e.Value) }
func (e *PanicError) Is(target error) bool { return target == ErrCellPanic }
