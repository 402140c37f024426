package expt

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wlcache/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json from the current engine")

const goldenPath = "testdata/golden_results.json"

// TestGoldenResults proves the simulator produces bit-identical
// results for every design×workload×trace cell of the pinned matrix.
// The committed golden file was generated from the pre-optimization
// engine, so this is the before/after equivalence proof for the
// hot-path work — and, since the matrix runs through the runner, it
// also proves the runner's worker pool does not perturb results.
// Regenerate deliberately with:
//
//	go test ./internal/expt -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	got, err := RunGoldenMatrix(Context{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d cells to %s", len(got), goldenPath)
		return
	}

	want, err := LoadGoldenFile(goldenPath)
	if err != nil {
		t.Fatalf("golden: %v (generate with -update)", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden: matrix size changed: committed %d cells, ran %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		if want[i].ID() != got[i].ID() {
			t.Fatalf("golden: cell %d is %s, committed file has %s (matrix order changed; regenerate with -update)",
				i, got[i].ID(), want[i].ID())
		}
	}
	if err := CompareGoldenCells(got, want, false); err != nil {
		t.Error(err)
	}
}

// TestGoldenResultsFastTier proves the fast tier's accuracy contract
// against the same committed bit-exact golden: the full pinned matrix
// run at sim.TierFast must reproduce every count field (instructions,
// outages, write-backs, checkpoint lines, traffic, checksums) exactly,
// and every energy/time field within the committed FastTolerance. The
// golden file is never regenerated from the fast tier — the exact
// engine stays the single source of truth.
func TestGoldenResultsFastTier(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is generated from the exact tier only")
	}
	got, err := RunGoldenMatrix(Context{Tier: sim.TierFast}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadGoldenFile(goldenPath)
	if err != nil {
		t.Fatalf("golden: %v (generate with -update)", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden: matrix size changed: committed %d cells, ran %d", len(want), len(got))
	}
	if err := CompareGoldenCellsTol(got, want, false, FastTolerance()); err != nil {
		t.Error(err)
	}
}
