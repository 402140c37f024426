package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/expt"
)

// TestMain intercepts the chaos harness's re-exec: when -chaos spawns
// os.Executable() with WLBENCH_CHAOS_CHILD set, under `go test` that
// executable is this test binary. Routing the env var into run() here
// makes the child behave exactly like the installed wlbench would.
func TestMain(m *testing.M) {
	if child, ok := os.LookupEnv(chaosChildEnv); ok {
		os.Unsetenv(chaosChildEnv)
		if err := run(strings.Split(child, chaosChildSep), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wlbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
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

// The full crash-resume proof, in-process: -chaos re-execs this test
// binary as a sweep child that SIGKILLs itself mid-journal (see
// TestMain), resumes, and verifies the stitched subset matrix against
// the committed golden with zero recomputation of journaled cells.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a full sweep subset")
	}
	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	var b strings.Builder
	err := run([]string{
		"-chaos", "-seed", "7",
		"-journal", journal,
		"-workloads", "adpcmencode",
		"-golden", filepath.Join("..", "..", "internal", "expt", "testdata", "golden_results.json"),
	}, &b)
	if err != nil {
		t.Fatalf("chaos run failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "child killed mid-sweep") {
		t.Fatalf("child was not killed:\n%s", out)
	}
	if !strings.Contains(out, "zero recomputation") || !strings.Contains(out, "PASS") {
		t.Fatalf("missing pass verdict:\n%s", out)
	}
	// The journal survived the SIGKILL with the child's appends intact.
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing or empty after chaos run: %v", err)
	}
}

// A second chaos pass over the same journal must serve everything: the
// resumed sweep journals the cells the child never reached, so a
// subsequent sweep computes nothing.
func TestSweepFullyJournaledComputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	var b1 strings.Builder
	if err := run([]string{"-sweep", "-journal", journal, "-workloads", "adpcmencode", "-traces", "none"}, &b1); err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := run([]string{"-sweep", "-journal", journal, "-workloads", "adpcmencode", "-traces", "none"}, &b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "0 computed") {
		t.Fatalf("second sweep recomputed journaled cells:\n%s", b2.String())
	}
}

// -traces must reject unknown names before any simulation starts.
func TestSweepUnknownTraceRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-sweep", "-traces", "tr99"}, &b)
	if err == nil || !strings.Contains(err.Error(), "unknown power trace") {
		t.Fatalf("unknown trace accepted: %v", err)
	}
	if code := exitCodeFor(err); code != 1 {
		t.Fatalf("usage error exit code = %d, want 1", code)
	}
}

// The documented exit codes: 1 usage/infra, 2 golden mismatch, 3
// chaos failure — and a chaos failure whose symptom is a mismatch
// stays 3, because scripts branch on which *gate* failed.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil is unreachable but safe", errors.New("plain"), 1},
		{"usage", fmt.Errorf("unknown experiment %q", "x"), 1},
		{"mismatch", fmt.Errorf("%w: checksum drifted", errMismatch), 2},
		{"wrapped mismatch", fmt.Errorf("outer: %w", fmt.Errorf("%w: inner", errMismatch)), 2},
		{"chaos", chaosFail("journaled work was lost"), 3},
		{"chaos wrapping a mismatch", fmt.Errorf("%w: %w", errChaos, errMismatch), 3},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("%s: exitCodeFor(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// A failed golden comparison must classify as a mismatch (exit 2), not
// a generic error: CI distinguishes "the run broke" from "the results
// drifted".
func TestCompareMismatchClassified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep subset")
	}
	// A copy of the committed golden with one field of one adpcmencode
	// cell changed: the sweep completes and finds the divergence.
	cells, err := expt.LoadGoldenFile(filepath.Join("..", "..", "internal", "expt", "testdata", "golden_results.json"))
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
	err = run([]string{"-sweep", "-workloads", "adpcmencode", "-traces", "none", "-golden", path}, &b)
	if err == nil {
		t.Fatal("divergent sweep passed the golden check")
	}
	if !errors.Is(err, errMismatch) || !strings.Contains(err.Error(), cells[doctored].ID()) {
		t.Fatalf("golden divergence not classified as a mismatch of %s: %v", cells[doctored].ID(), err)
	}
	if code := exitCodeFor(err); code != 2 {
		t.Fatalf("golden divergence exit code = %d, want 2", code)
	}
}

// The end-to-end service chaos gate: two overlapping sweeps against a
// live wlserve (this test binary re-exec'd via TestMain), SIGKILL at a
// seed-chosen journal append, restart, resubmit; zero journaled cells
// recompute, duplicates compute exactly once, and the stitched matrix
// is bit-identical to the committed golden.
func TestChaosServe(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a server and runs two sweep subsets twice")
	}
	var b strings.Builder
	err := run([]string{
		"-chaos", "-serve", "-seed", "5",
		"-data", t.TempDir(),
		"-workloads", "adpcmencode",
		"-golden", filepath.Join("..", "..", "internal", "expt", "testdata", "golden_results.json"),
	}, &b)
	if err != nil {
		t.Fatalf("serve chaos gate failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "server killed mid-sweep") {
		t.Fatalf("server was not killed:\n%s", out)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "bit-identical") {
		t.Fatalf("missing pass verdict:\n%s", out)
	}
}

// The serve gate requires a committed golden: without one it cannot
// prove bit-identity, so it must refuse to run (usage error, exit 1).
func TestChaosServeNeedsGolden(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-chaos", "-serve"}, &b)
	if err == nil || !strings.Contains(err.Error(), "-golden") {
		t.Fatalf("serve gate ran without a golden: %v", err)
	}
	if code := exitCodeFor(err); code != 1 {
		t.Fatalf("missing-golden exit code = %d, want 1", code)
	}
}
