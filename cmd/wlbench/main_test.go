package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/expt"
)

var goldenFile = filepath.Join("..", "..", "internal", "expt", "testdata", "golden_results.json")

// buildWlserve compiles the real wlserve command into a temp dir: the
// chaos gate crashes that binary, not a stand-in.
func buildWlserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wlserve")
	out, err := exec.Command("go", "build", "-o", bin, "wlcache/cmd/wlserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building wlserve: %v\n%s", err, out)
	}
	return bin
}

func TestListExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig4", "fig13b", "hwcost", "sec33", "all"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, b.String())
		}
	}
}

func TestNoExperimentIsError(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Fatal("empty invocation should fail after printing the list")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "bogus"}, &b); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperimentWithOutDir(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	err := run([]string{"-experiment", "table2", "-out", dir}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table 2") {
		t.Fatalf("missing experiment output:\n%s", b.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Vbackup") {
		t.Fatal("saved file incomplete")
	}
}

func TestRunExperimentOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var b strings.Builder
	err := run([]string{"-experiment", "fig7", "-workloads", "sha,qsort"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sha") || !strings.Contains(b.String(), "gmean") {
		t.Fatalf("fig7 output incomplete:\n%s", b.String())
	}
}

// A non-positive -scale is a usage error, not a silent scale of 1.
func TestNonPositiveScaleRejected(t *testing.T) {
	var b strings.Builder
	for _, scale := range []string{"0", "-2"} {
		err := run([]string{"-experiment", "fig5", "-workloads", "sha", "-scale", scale}, &b)
		if want := "-scale " + scale + ": want at least 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-scale %s: err = %v, want %q", scale, err, want)
		}
		if code := exitCodeFor(err); code != 1 {
			t.Errorf("-scale %s: exit code = %d, want 1", scale, code)
		}
	}
}

// -workloads must name only known benchmarks, and at least one,
// before anything runs: an unknown name is not silently dropped, and
// a list with no name is not a sweep over nothing.
func TestUnknownWorkloadsRejected(t *testing.T) {
	for _, c := range []struct {
		experiment, workloads, want string
	}{
		{"fig7", "bogus,sha", `unknown workload "bogus"`},
		{"fig5", "bogus", `unknown workload "bogus"`},
		{"fig5", ",,", `-workloads ",," names no workload`},
	} {
		var b strings.Builder
		err := run([]string{"-experiment", c.experiment, "-workloads", c.workloads, "-tier", "fast"}, &b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-workloads %s: err = %v, want %q", c.workloads, err, c.want)
		}
		if code := exitCodeFor(err); code != 1 {
			t.Errorf("-workloads %s: exit code = %d, want 1", c.workloads, code)
		}
		if b.Len() != 0 {
			t.Errorf("-workloads %s: printed output before failing:\n%s", c.workloads, b.String())
		}
	}
}

// -traces must reject unknown names before any server starts.
func TestSweepUnknownTraceRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-chaos", "-traces", "tr99"}, &b)
	if err == nil || !strings.Contains(err.Error(), "unknown power trace") {
		t.Fatalf("unknown trace accepted: %v", err)
	}
	if code := exitCodeFor(err); code != 1 {
		t.Fatalf("usage error exit code = %d, want 1", code)
	}
}

// -traces skips empty entries, as -workloads does, and rejects a list
// that names no trace.
func TestSweepTraceListResolved(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-chaos", "-traces", ",tr1"}, &b)
	if err == nil || !strings.HasPrefix(err.Error(), "-chaos needs -golden") {
		t.Errorf("-traces ,tr1: err = %v, want the missing -golden error", err)
	}
	err = run([]string{"-chaos", "-traces", ","}, &b)
	if want := `-traces "," names no power trace`; err == nil || err.Error() != want {
		t.Errorf("-traces ,: err = %v, want %q", err, want)
	}
}

// The documented exit codes: 1 usage/infra, 3 chaos failure — scripts
// branch on whether the gate itself failed.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil is unreachable but safe", errors.New("plain"), 1},
		{"usage", fmt.Errorf("unknown experiment %q", "x"), 1},
		{"chaos", chaosFail("journaled work was lost"), 3},
		{"wrapped chaos", fmt.Errorf("outer: %w", chaosFail("stitched results diverged")), 3},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("%s: exitCodeFor(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// The crash-resume gate against the real wlserve: two overlapping
// sweeps, SIGKILL at a seed-chosen journal append, restart, resubmit;
// zero journaled cells recompute, duplicates compute exactly once, and
// the stitched matrix is bit-identical to the committed golden.
func TestChaosServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wlserve and runs two sweep subsets twice")
	}
	var b strings.Builder
	err := run([]string{
		"-chaos", "-serve-bin", buildWlserve(t), "-seed", "5",
		"-workloads", "adpcmencode",
		"-golden", goldenFile,
	}, &b)
	if err != nil {
		t.Fatalf("chaos gate failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "server killed mid-sweep") {
		t.Fatalf("server was not killed:\n%s", out)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "bit-identical") {
		t.Fatalf("missing pass verdict:\n%s", out)
	}
}

// The gate's failing side: against a golden copy with one feasible
// adpcmencode cell's checksum changed, the crash and resume succeed
// but the stitched matrix diverges, and the gate must fail with exit 3
// naming that cell.
func TestChaosServeDetectsDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wlserve and runs two sweep subsets twice")
	}
	cells, err := expt.LoadGoldenFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	doctored := -1
	for i, c := range cells {
		if c.Workload == "adpcmencode" && c.Trace == "none" && c.Err == "" {
			c.Fields["Checksum"] = "1"
			doctored = i
			break
		}
	}
	if doctored < 0 {
		t.Fatal("golden pins no feasible adpcmencode cell without power failures")
	}
	raw, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doctored.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = run([]string{
		"-chaos", "-serve-bin", buildWlserve(t), "-seed", "5",
		"-workloads", "adpcmencode",
		"-golden", path,
	}, &b)
	if err == nil {
		t.Fatalf("divergent stitch passed the gate:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), cells[doctored].ID()) {
		t.Fatalf("gate failure does not name the doctored cell %s: %v", cells[doctored].ID(), err)
	}
	if code := exitCodeFor(err); code != 3 {
		t.Fatalf("divergent stitch exit code = %d, want 3 (%v)", code, err)
	}
}

// The gate requires a committed golden and a wlserve binary: without
// either it cannot run, so it must refuse (usage error, exit 1).
func TestChaosServeNeedsGolden(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "-serve-bin", "wlserve"}, "-golden"},
		{[]string{"-chaos", "-golden", goldenFile}, "-serve-bin"},
	} {
		var b strings.Builder
		err := run(c.args, &b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("run(%v) = %v, want an error naming %s", c.args, err, c.want)
		}
		if code := exitCodeFor(err); code != 1 {
			t.Fatalf("run(%v) exit code = %d, want 1", c.args, code)
		}
	}
}
