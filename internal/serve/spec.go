package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"wlcache/internal/expt"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// Spec is a client's sweep request: the cross product of designs ×
// workloads × traces × parameter grid. Zero values mean the pinned
// golden defaults, so `{}` submits the committed golden matrix.
type Spec struct {
	// Designs restricts the design kinds (default: every registered
	// kind, the golden matrix population).
	Designs []string `json:"designs,omitempty"`
	// Workloads restricts the benchmarks (default: the golden pair).
	Workloads []string `json:"workloads,omitempty"`
	// Traces restricts the power traces (default: the golden trio).
	Traces []string `json:"traces,omitempty"`
	// Scale multiplies workload input sizes (default 1 = paper runs).
	Scale int `json:"scale,omitempty"`
	// Grid sweeps WL-Cache build parameters; nil means paper defaults
	// (one combination).
	Grid *Grid `json:"grid,omitempty"`
	// Tier selects the engine fidelity: "" or "exact" for the
	// bit-exact engine, "fast" for the ε-bounded batched engine
	// (DESIGN.md §16). Deliberately NOT normalized ""→"exact": the
	// empty form keeps pre-tier sweep IDs (and their journals)
	// stable, and the tier feeds the cell fingerprint so fast cells
	// can never be resumed from exact journal entries or vice versa.
	Tier string `json:"tier,omitempty"`
}

// Grid is the parameter-grid dimension of a sweep: every listed
// maxline is crossed with every listed DQ capacity. 0 entries mean the
// paper default for that parameter.
type Grid struct {
	Maxline []int `json:"maxline,omitempty"`
	DQCap   []int `json:"dqcap,omitempty"`
}

// maxGridDim bounds each grid axis so a spec cannot explode the cell
// count through the grid alone (the total is bounded separately by
// Config.MaxCells).
const maxGridDim = 16

// normalize fills the golden defaults into empty dimensions.
func (s Spec) normalize() Spec {
	if len(s.Designs) == 0 {
		for _, k := range expt.AllKinds() {
			s.Designs = append(s.Designs, string(k))
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = expt.GoldenWorkloads()
	}
	if len(s.Traces) == 0 {
		for _, src := range expt.GoldenSources() {
			s.Traces = append(s.Traces, string(src))
		}
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Grid == nil {
		s.Grid = &Grid{}
	}
	if len(s.Grid.Maxline) == 0 {
		s.Grid.Maxline = []int{0}
	}
	if len(s.Grid.DQCap) == 0 {
		s.Grid.DQCap = []int{0}
	}
	return s
}

// validate rejects anything the engine cannot run, before any
// simulation or journal I/O happens.
func (s Spec) validate() error {
	// Each entry is checked as given, untrimmed: the spec's order and
	// spelling name the sweep and its journal.
	for _, d := range s.Designs {
		if err := expt.Kinds.Check(d); err != nil {
			return err
		}
	}
	for _, wl := range s.Workloads {
		if err := expt.Workloads.Check(wl); err != nil {
			return err
		}
	}
	for _, tr := range s.Traces {
		if err := expt.Traces.Check(tr); err != nil {
			return err
		}
	}
	if s.Scale > 64 {
		return fmt.Errorf("scale %d out of range [1,64]", s.Scale)
	}
	if len(s.Grid.Maxline) > maxGridDim || len(s.Grid.DQCap) > maxGridDim {
		return fmt.Errorf("grid axis longer than %d entries", maxGridDim)
	}
	for _, ml := range s.Grid.Maxline {
		if ml < 0 || ml > 64 {
			return fmt.Errorf("grid maxline %d out of range [0,64]", ml)
		}
	}
	for _, dq := range s.Grid.DQCap {
		if dq < 0 || dq > 64 {
			return fmt.Errorf("grid dqcap %d out of range [0,64]", dq)
		}
	}
	// A repeated entry would sweep copies of the same cells and count
	// them against Config.MaxCells; the spec is rejected, not deduped.
	// The name and range checks above bound how many distinct values
	// a list can hold, so a long list meets its first repeat early.
	for _, err := range []error{
		unique("designs", s.Designs), unique("workloads", s.Workloads), unique("traces", s.Traces),
		unique("grid.maxline", s.Grid.Maxline), unique("grid.dqcap", s.Grid.DQCap),
	} {
		if err != nil {
			return err
		}
	}
	if _, err := sim.ParseTier(s.Tier); err != nil {
		return err
	}
	return nil
}

// unique rejects the first entry of the named dimension that repeats
// an earlier one.
func unique[T comparable](dim string, list []T) error {
	for i, x := range list {
		if slices.Contains(list[:i], x) {
			return fmt.Errorf("%s lists %#v twice", dim, x)
		}
	}
	return nil
}

// NumCells returns the sweep's cell count without building the cells.
func (s Spec) NumCells() int {
	n := s.normalize()
	return len(n.Designs) * len(n.Workloads) * len(n.Traces) *
		len(n.Grid.Maxline) * len(n.Grid.DQCap)
}

// ID content-addresses the normalized spec under the given engine
// version: the hex SHA-256 that names the sweep and keys its wlrun/v1
// journal file. Identical resubmissions — the resume path after a
// server crash — hash to the same journal.
func (s Spec) ID(engine string) string {
	canon, err := json.Marshal(s.normalize())
	if err != nil {
		// A Spec of scalars and slices always marshals.
		panic(fmt.Sprintf("serve: spec hash: %v", err))
	}
	h := sha256.New()
	h.Write([]byte("wlserve/v1"))
	h.Write([]byte{0})
	h.Write([]byte(engine))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// cells expands the normalized spec into runner cells (design-major,
// the committed golden order for default grids) plus the per-cell
// metadata streamed back to the client. Every cell is tolerated: a
// failing cell streams its error, it never aborts the sweep.
func (s Spec) cells() []plannedCell {
	n := s.normalize()
	defaultGrid := len(n.Grid.Maxline) == 1 && n.Grid.Maxline[0] == 0 &&
		len(n.Grid.DQCap) == 1 && n.Grid.DQCap[0] == 0
	cfg := sim.DefaultConfig()
	cfg.Tier, _ = sim.ParseTier(n.Tier) // validated before cells()
	var out []plannedCell
	for _, d := range n.Designs {
		for _, wl := range n.Workloads {
			for _, tr := range n.Traces {
				for _, ml := range n.Grid.Maxline {
					for _, dq := range n.Grid.DQCap {
						opts := expt.Options{Maxline: ml, DQCap: dq}
						rc := expt.RunnerCell(expt.Kind(d), opts, wl, n.Scale, power.Source(tr), cfg)
						if !defaultGrid {
							rc.ID = fmt.Sprintf("%s/ml%d/dq%d", rc.ID, ml, dq)
						}
						rc.Optional = true
						out = append(out, plannedCell{
							cell: rc,
							meta: cellMeta{Kind: d, Workload: wl, Trace: tr},
						})
					}
				}
			}
		}
	}
	return out
}

// plannedCell pairs a runner cell with the identity streamed back to
// the client.
type plannedCell struct {
	cell runner.Cell
	meta cellMeta
}

type cellMeta struct {
	Kind     string
	Workload string
	Trace    string
}
