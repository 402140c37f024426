package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wlcache/internal/sim"
)

// A small matrix must flag the broken negative control and pass
// WL-Cache, exiting zero because both verdicts match expectations.
func TestAuditDifferentialSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var b strings.Builder
	code, err := run([]string{
		"-designs", "wl,broken",
		"-workloads", "adpcmencode",
		"-modes", "crash,ackloss",
		"-seeds", "1",
		"-points", "3",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if code != 0 {
		t.Fatalf("exit code %d (verdicts deviated from expectations):\n%s", code, out)
	}
	if !strings.Contains(out, "all verdicts as expected") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	for _, want := range []string{"wl", "broken", "crash", "ackloss", "verdict"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	brokenRow := rowOf(t, out, "broken")
	if !strings.Contains(brokenRow, "FAIL") {
		t.Fatalf("broken row has no FAIL: %q", brokenRow)
	}
	wlRow := rowOf(t, out, "wl ")
	if strings.Contains(wlRow, "FAIL") {
		t.Fatalf("wl row has a FAIL: %q", wlRow)
	}
}

// A sound design unexpectedly failing (here: none do, so we fake the
// expectation by auditing only the broken design, whose FAIL is
// expected) keeps the exit code zero; auditing it as if it were sound
// is not possible through flags, so instead check that bad flag input
// errors out.
func TestBadFlagsError(t *testing.T) {
	var b strings.Builder
	if _, err := run([]string{"-modes", "bogus"}, &b); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := run([]string{"-seeds", "x"}, &b); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, err := run([]string{"-workloads", "bogus"}, &b); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, scale := range []string{"0", "-2"} {
		_, err := run([]string{"-scale", scale}, &b)
		if want := "-scale " + scale + ": want at least 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-scale %s: err = %v, want %q", scale, err, want)
		}
	}
}

// -points below 1 is a usage error (exit 1), not a silent default.
func TestNonPositivePointsRejected(t *testing.T) {
	var b strings.Builder
	for _, points := range []string{"0", "-1"} {
		_, err := run([]string{"-designs", "wl", "-workloads", "adpcmencode", "-points", points}, &b)
		if want := "-points " + points + ": want at least 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-points %s: err = %v, want %q", points, err, want)
		}
		if code := exitCodeFor(err); code != 1 {
			t.Errorf("-points %s: exit code = %d, want 1", points, code)
		}
	}
}

// The documented exit-code contract: typed simulator sentinels map to
// distinct codes even when wrapped, everything else is a generic 1.
func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("audit cell wl/sha: %w", sim.ErrCrashConsistency), 3},
		{fmt.Errorf("audit cell wl/sha: %w", sim.ErrNoProgress), 4},
		{fmt.Errorf("wrapped twice: %w", fmt.Errorf("%w", sim.ErrReserveExhausted)), 5},
		{errors.New("flag provided but not defined"), 1},
		{sim.ErrCrashConsistency, 3},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("exitCodeFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// rowOf extracts the table line starting with the given label.
func rowOf(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), prefix) {
			return line
		}
	}
	t.Fatalf("no row %q in:\n%s", prefix, out)
	return ""
}

// Permuting (and duplicating) the -designs and -workloads lists must
// not change the audit table: designs render in registry order,
// workloads sorted, both deduplicated.
func TestMatrixOrderIsCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	invoke := func(designs, workloads string) string {
		var b strings.Builder
		code, err := run([]string{
			"-designs", designs,
			"-workloads", workloads,
			"-modes", "crash",
			"-seeds", "1",
			"-points", "1",
		}, &b)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("exit code %d:\n%s", code, b.String())
		}
		return b.String()
	}
	a := invoke("wl,broken", "basicmath,adpcmencode")
	c := invoke("broken,wl,broken", "adpcmencode,basicmath,adpcmencode")
	if a != c {
		t.Fatalf("audit output depends on flag order:\n--- a ---\n%s--- b ---\n%s", a, c)
	}
	if strings.Index(a, "broken") > strings.Index(a, "wl ") {
		t.Fatalf("designs not in registry order (broken is registered before the wl variants):\n%s", a)
	}
}

func TestUnknownDesignErrors(t *testing.T) {
	var b strings.Builder
	if _, err := run([]string{"-designs", "bogus"}, &b); err == nil {
		t.Fatal("unknown design accepted")
	}
}

// A -designs or -workloads list that names nothing is a usage error
// (exit 1) before any cell runs, never an all-PASS audit of no cells.
func TestEmptyListRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-workloads", ",", `-workloads "," names no workload`},
		{"-workloads", "", `-workloads "" names no workload`},
		{"-designs", " , ", `-designs " , " names no design kind`},
	} {
		var b strings.Builder
		_, err := run([]string{c.flag, c.value}, &b)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s %q: err = %v, want %q", c.flag, c.value, err, c.want)
		}
		if code := exitCodeFor(err); code != 1 {
			t.Errorf("%s %q: exit code = %d, want 1", c.flag, c.value, code)
		}
		if b.Len() != 0 {
			t.Errorf("%s %q: printed output before failing:\n%s", c.flag, c.value, b.String())
		}
	}
}
