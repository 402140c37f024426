package expt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"

	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// The golden sweep is the pinned design×workload×trace matrix whose
// bit-exact results are committed to testdata/golden_results.json: all
// registered designs crossed with one short MediaBench kernel and the
// benchmark workload (sha) under uninterrupted power, the moderately
// stable home RF trace, and the very unstable Mementos trace. It is
// both the engine's regression gate and the chaos harness's truth: a
// sweep killed at any point must resume to exactly these cells.

// GoldenWorkloads returns the workloads of the pinned matrix.
func GoldenWorkloads() []string { return []string{"adpcmencode", "sha"} }

// GoldenSources returns the power traces of the pinned matrix.
func GoldenSources() []power.Source { return []power.Source{power.None, power.Trace1, power.Trace3} }

// GoldenCell pins one (design, workload, trace) cell of the sweep
// matrix. Result fields are flattened to exact string renderings —
// floats as IEEE-754 bit patterns — so any drift, even a single ulp,
// is detectable. Infeasible cells (e.g. eager-wb's unbounded reserve
// on traced configs) are pinned by their error string instead.
type GoldenCell struct {
	Kind     string            `json:"kind"`
	Workload string            `json:"workload"`
	Trace    string            `json:"trace"`
	Err      string            `json:"err,omitempty"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// ID names the cell.
func (c GoldenCell) ID() string { return c.Kind + "/" + c.Workload + "/" + c.Trace }

// FlattenResult renders every scalar field of a sim.Result (including
// nested structs) as an exact string.
func FlattenResult(r sim.Result) map[string]string {
	out := make(map[string]string)
	flattenValue("", reflect.ValueOf(r), out)
	return out
}

func flattenValue(prefix string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			name := t.Field(i).Name
			if prefix != "" {
				name = prefix + "." + name
			}
			flattenValue(name, v.Field(i), out)
		}
	case reflect.Float64:
		out[prefix] = fmt.Sprintf("%#016x", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		out[prefix] = fmt.Sprintf("%d", v.Int())
	case reflect.Uint32, reflect.Uint64:
		out[prefix] = fmt.Sprintf("%d", v.Uint())
	case reflect.String:
		out[prefix] = v.String()
	case reflect.Bool:
		out[prefix] = fmt.Sprintf("%t", v.Bool())
	default:
		panic(fmt.Sprintf("golden: unsupported field kind %s at %q", v.Kind(), prefix))
	}
}

// RunGoldenMatrix executes the pinned matrix — restricted to the given
// workloads and sources, both defaulting to the full pinned sets —
// through the runner's worker pool, in the committed fixed order.
// Every cell is tolerated (infeasible designs are part of the pin), so
// the sweep never aborts; per-cell errors land in the GoldenCells.
func RunGoldenMatrix(ctx Context, workloads []string, sources []power.Source) ([]GoldenCell, error) {
	if len(workloads) == 0 {
		workloads = GoldenWorkloads()
	}
	if len(sources) == 0 {
		sources = GoldenSources()
	}
	ctx.Scale = 1
	var cells []cell
	var golden []GoldenCell
	for _, kind := range AllKinds() {
		for _, wl := range workloads {
			for _, src := range sources {
				cells = append(cells, cell{kind: kind, wl: wl, src: src, optional: true})
				golden = append(golden, GoldenCell{Kind: string(kind), Workload: wl, Trace: string(src)})
			}
		}
	}
	rep, err := runCellsReport(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i := range golden {
		if cerr := rep.Errs[i]; cerr != nil {
			// Pin the underlying simulator error exactly as a direct
			// Run call would have returned it, not the runner's
			// cell-attributed wrapper.
			var ce *runner.CellError
			if errors.As(cerr, &ce) {
				golden[i].Err = ce.Err.Error()
			} else {
				golden[i].Err = cerr.Error()
			}
		} else {
			golden[i].Fields = FlattenResult(rep.Results[i])
		}
	}
	return golden, nil
}

// LoadGoldenFile reads a committed golden matrix: in one pass when the
// file is in the form encoding/json writes it (TestGoldenResults
// -update writes it indented), through encoding/json otherwise, so a
// hand-edited, truncated or corrupt file keeps encoding/json's verdict
// and error text.
func LoadGoldenFile(path string) ([]GoldenCell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if cells, ok := readGoldenCells(string(data)); ok {
		return cells, nil
	}
	var cells []GoldenCell
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return cells, nil
}

// Tolerance is the fast tier's committed accuracy contract against the
// bit-exact golden (DESIGN.md §16). Fields fall into three classes:
//
//   - counts and identities (instructions, loads/stores, outages,
//     write-backs, checkpoint lines, NVM traffic, checksums, adaptive
//     settings): exactly equal, always — the fast tier decides every
//     event and every outage boundary at the same granularity as the
//     exact tier, so these may not drift at all;
//   - energies (Energy.*, ReserveWasted): ε-equal — batched settlement
//     reorders floating-point summation, perturbing sums at relative
//     ~1e-15 per operation;
//   - phase times (ExecTime, OnTime, CheckpointTime, OffTime,
//     RestoreTime, Extra.StallTime): ε-equal — recharge durations
//     derive from ε-perturbed energies and round to integer ps, so
//     each outage can shift absolute time by ~1 ps.
type Tolerance struct {
	// EnergyRel/EnergyAbs bound energy drift (joules): a field passes
	// when |got-want| <= max(EnergyAbs, EnergyRel*max(|got|,|want|)).
	EnergyRel float64
	EnergyAbs float64
	// TimeRel/TimeAbsPS bound time drift (picoseconds) the same way.
	TimeRel   float64
	TimeAbsPS float64
}

// FastTolerance is the committed fast-tier contract: energies within
// 1e-9 relative, times within 1e-6 relative (floored at 10 ns — ~1 ps
// per outage of recharge rounding on short runs). Measured drift on the
// 78-cell golden is orders of magnitude below both bounds; the slack
// keeps the gate stable across compilers and FMA-contraction choices
// without ever admitting a physically meaningful difference.
func FastTolerance() Tolerance {
	return Tolerance{EnergyRel: 1e-9, EnergyAbs: 1e-18, TimeRel: 1e-6, TimeAbsPS: 10_000}
}

// goldenFieldClass classifies a flattened Result field for tolerant
// comparison.
type goldenFieldClass int

const (
	classExact goldenFieldClass = iota
	classEnergy
	classTime
)

func fieldClass(name string) goldenFieldClass {
	switch {
	case name == "ReserveWasted" || strings.HasPrefix(name, "Energy."):
		return classEnergy
	case name == "ExecTime" || name == "OnTime" || name == "CheckpointTime" ||
		name == "OffTime" || name == "RestoreTime" || name == "Extra.StallTime":
		return classTime
	}
	return classExact
}

// parseGoldenFloat decodes FlattenResult's %#016x IEEE-754 rendering.
func parseGoldenFloat(s string) (float64, bool) {
	hexDigits, ok := strings.CutPrefix(s, "0x")
	if !ok {
		return 0, false
	}
	bits, err := strconv.ParseUint(hexDigits, 16, 64)
	if err != nil {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

func withinTol(got, want, rel, abs float64) bool {
	d := math.Abs(got - want)
	bound := rel * math.Max(math.Abs(got), math.Abs(want))
	if bound < abs {
		bound = abs
	}
	return d <= bound
}

// CompareGoldenCellsTol verifies got against the committed bit-exact
// matrix under the fast tier's contract: every count field must match
// exactly; energy and time fields must agree within tol. Cell coverage
// and error strings follow CompareGoldenCells semantics.
func CompareGoldenCellsTol(got, committed []GoldenCell, subset bool, tol Tolerance) error {
	return compareGoldenCells(got, committed, subset, &tol)
}

// CompareGoldenCells verifies got against the committed matrix,
// bit-exactly. With subset true, got may cover fewer cells than the
// commitment (a restricted sweep), but every produced cell must still
// match its committed counterpart by ID — an extra cell the
// commitment does not pin is an error, so a stitched run can never
// silently over-report.
func CompareGoldenCells(got, committed []GoldenCell, subset bool) error {
	return compareGoldenCells(got, committed, subset, nil)
}

// compareGoldenCells is both comparators: tol nil compares every field
// by its rendered bits (so -0 and +0 differ), otherwise energy and time
// fields may move within tol.
func compareGoldenCells(got, committed []GoldenCell, subset bool, tol *Tolerance) error {
	want := make(map[string]GoldenCell, len(committed))
	for _, c := range committed {
		want[c.ID()] = c
	}
	var diffs []string
	for _, g := range got {
		w, ok := want[g.ID()]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: produced but not pinned by the golden (extra cell)", g.ID()))
			continue
		}
		delete(want, g.ID())
		if w.Err != g.Err {
			diffs = append(diffs, fmt.Sprintf("%s: error drift: committed %q, got %q", g.ID(), w.Err, g.Err))
			continue
		}
		for field, wv := range w.Fields {
			gv, ok := g.Fields[field]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s: field %s missing from current result", g.ID(), field))
				continue
			}
			if gv == wv {
				continue
			}
			if tol == nil {
				diffs = append(diffs, fmt.Sprintf("%s: %s drifted: committed %s, got %s", g.ID(), field, wv, gv))
				continue
			}
			switch fieldClass(field) {
			case classEnergy:
				gf, ok1 := parseGoldenFloat(gv)
				wf, ok2 := parseGoldenFloat(wv)
				if !ok1 || !ok2 || !withinTol(gf, wf, tol.EnergyRel, tol.EnergyAbs) {
					diffs = append(diffs, fmt.Sprintf("%s: %s outside energy tolerance: committed %s (%g), got %s (%g)",
						g.ID(), field, wv, wf, gv, gf))
				}
			case classTime:
				var gt, wt int64
				_, err1 := fmt.Sscanf(gv, "%d", &gt)
				_, err2 := fmt.Sscanf(wv, "%d", &wt)
				if err1 != nil || err2 != nil || !withinTol(float64(gt), float64(wt), tol.TimeRel, tol.TimeAbsPS) {
					diffs = append(diffs, fmt.Sprintf("%s: %s outside time tolerance: committed %s, got %s",
						g.ID(), field, wv, gv))
				}
			default:
				diffs = append(diffs, fmt.Sprintf("%s: count field %s must be exact: committed %s, got %s",
					g.ID(), field, wv, gv))
			}
		}
		for field := range g.Fields {
			if _, ok := w.Fields[field]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: new field %s not in committed golden", g.ID(), field))
			}
		}
	}
	if !subset {
		for id := range want {
			diffs = append(diffs, fmt.Sprintf("%s: pinned by the golden but not produced", id))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	if len(diffs) > 20 {
		diffs = append(diffs[:20], fmt.Sprintf("... and %d more", len(diffs)-20))
	}
	header := "golden divergence"
	if tol != nil {
		header += " (fast-tier tolerance)"
	}
	return fmt.Errorf("%s:\n  %s", header, strings.Join(diffs, "\n  "))
}
