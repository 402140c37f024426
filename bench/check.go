package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"wlcache/internal/expt"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// expectedPath is the committed outcome file, relative to the root.
const expectedPath = "bench/testdata/expected_seed1.json"

// expectedFile is the on-disk format: the exact-tier seed-1 outcome of
// every cell of each matrix, flattened like the 78-cell golden.
type expectedFile struct {
	Engine   string                       `json:"engine"`
	Matrices map[string][]expt.GoldenCell `json:"matrices"`
}

// expected checks simulated outcomes.
type expected struct {
	cells map[string]map[string]expt.GoldenCell // matrix -> cell id -> outcome
	// uninterrupted is each kernel's run without power failures, whose
	// checksum and instruction count every other run must reproduce.
	uninterrupted map[string]sim.Result
}

// loadExpected reads the committed outcome file.
func loadExpected(root string) (*expected, error) {
	data, err := os.ReadFile(filepath.Join(root, expectedPath))
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	if f.Engine != sim.EngineVersion {
		return nil, fmt.Errorf("%s pins engine %q, this is %q: regenerate it with -update", expectedPath, f.Engine, sim.EngineVersion)
	}
	e := &expected{cells: map[string]map[string]expt.GoldenCell{}, uninterrupted: map[string]sim.Result{}}
	for m, cells := range f.Matrices {
		e.cells[m] = make(map[string]expt.GoldenCell, len(cells))
		for _, c := range cells {
			e.cells[m][c.ID()] = c
			if c.Trace == string(power.None) {
				var r sim.Result
				if _, err := fmt.Sscan(c.Fields["Checksum"], &r.Checksum); err != nil {
					return nil, fmt.Errorf("%s: %s: checksum: %w", expectedPath, c.ID(), err)
				}
				if _, err := fmt.Sscan(c.Fields["Instructions"], &r.Instructions); err != nil {
					return nil, fmt.Errorf("%s: %s: instructions: %w", expectedPath, c.ID(), err)
				}
				e.uninterrupted[c.Workload] = r
			}
		}
	}
	return e, nil
}

// check validates one cell's outcome. At seed 1 the traces are the
// built-in ones, so the outcome must equal the committed one: field for
// field on the exact tier, within expt.FastTolerance on the fast tier.
// At other seeds the traces differ, and the checksum and instruction
// count must equal the kernel's uninterrupted run.
func (e *expected) check(matrix string, tier sim.Tier, seed int64, c cellSpec, res sim.Result, err error) error {
	if err != nil {
		return err
	}
	if seed != 1 {
		want, ok := e.uninterrupted[c.kernel]
		switch {
		case !ok:
			return fmt.Errorf("%s: no uninterrupted run of %s in %s", c.id(), c.kernel, expectedPath)
		case res.Checksum != want.Checksum || res.Instructions != want.Instructions:
			return fmt.Errorf("%s: checksum %#x over %d instructions, the uninterrupted run gives %#x over %d",
				c.id(), res.Checksum, res.Instructions, want.Checksum, want.Instructions)
		}
		return nil
	}
	want, ok := e.cells[matrix][c.id()]
	if !ok {
		return fmt.Errorf("%s: not pinned by %s", c.id(), expectedPath)
	}
	got := []expt.GoldenCell{{Kind: string(c.kind), Workload: c.kernel, Trace: string(c.src), Fields: expt.FlattenResult(res)}}
	if tier == sim.TierExact {
		return expt.CompareGoldenCells(got, []expt.GoldenCell{want}, true)
	}
	return expt.CompareGoldenCellsTol(got, []expt.GoldenCell{want}, true, expt.FastTolerance())
}

// uninterruptedMatrix pins every kernel's run without power failures,
// which the checks at seeds other than 1 compare against.
const uninterruptedMatrix = "none"

// writeExpected regenerates the outcome file: every cell of each
// matrix at seed 1 on the exact tier, and every kernel on WL-Cache
// without power failures. A cell that fails is an error, since the
// workloads must contain no failing operation.
func writeExpected(root string) error {
	f := expectedFile{Engine: sim.EngineVersion, Matrices: map[string][]expt.GoldenCell{}}
	traces := seededTraces(1)
	none := simWorkload{kinds: []expt.Kind{expt.KindWL}, kernels: workload.Names(),
		sources: []power.Source{power.None}, matrix: uninterruptedMatrix}
	for _, w := range []simWorkload{simWorkloads()["fig-exact"], simWorkloads()["outage-fast"], none} {
		w.tier = sim.TierExact
		cells := w.cells()
		rcells := make([]runner.Cell, len(cells))
		for i, c := range cells {
			rcells[i] = runner.Cell{ID: c.id(), Run: func(context.Context) (sim.Result, error) {
				return simulate(c, w, traces[c.src], nil)
			}}
		}
		rep, err := runner.RunCells(context.Background(), runner.Config{Workers: workers, Engine: sim.EngineVersion}, rcells)
		if err != nil {
			return fmt.Errorf("%s matrix: %w", w.matrix, err)
		}
		out := make([]expt.GoldenCell, len(cells))
		for i, c := range cells {
			out[i] = expt.GoldenCell{Kind: string(c.kind), Workload: c.kernel, Trace: string(c.src),
				Fields: expt.FlattenResult(rep.Results[i])}
		}
		f.Matrices[w.matrix] = out
	}
	// One cell per line keeps the file diffable.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"engine\": %q, \"matrices\": {", f.Engine)
	for mi, m := range []string{"fig", "outage", uninterruptedMatrix} {
		if mi > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n%q: [", m)
		for i, c := range f.Matrices[m] {
			line, err := json.Marshal(c)
			if err != nil {
				return err
			}
			if i > 0 {
				buf.WriteString(",")
			}
			buf.WriteString("\n")
			buf.Write(line)
		}
		buf.WriteString("\n]")
	}
	buf.WriteString("}}\n")
	return writeFile(filepath.Join(root, expectedPath), buf.Bytes())
}
