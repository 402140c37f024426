// Command wlfault runs the fault-injection and crash-consistency
// audit matrix (design × workload × fault mode × seed) and prints a
// pass/fail table. The deliberately unsafe "broken" design is
// expected to FAIL; every sound design must PASS. The exit status is
// non-zero only for *unexpected* results — a sound design failing or
// the negative control passing.
//
// Exit codes (scripts and CI branch on these):
//
//	0  audit completed, every verdict as expected
//	1  usage or infrastructure error (bad flags, unknown design, ...)
//	2  audit completed with unexpected verdicts
//	3  the audit itself aborted on a crash-consistency violation
//	4  the audit itself aborted on a forward-progress failure
//	5  the audit itself aborted on checkpoint-reserve exhaustion
//
// Codes 3–5 classify an *aborted* audit by the simulator's typed
// sentinel errors: they fire when a fault outside the tolerated
// matrix (e.g. an infrastructure workload failing to simulate) kills
// the run, not when a design under test merely fails its audit cells.
//
// Usage:
//
//	wlfault
//	wlfault -designs wl,broken -workloads adpcmencode -seeds 1,2,3
//	wlfault -modes crash,tornckpt -points 8 -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"wlcache/internal/expt"
	"wlcache/internal/fault"
	"wlcache/internal/hostinfo"
	"wlcache/internal/sim"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlfault:", err)
		os.Exit(exitCodeFor(err))
	}
	os.Exit(code)
}

// exitCodeFor maps an audit-aborting error to its documented exit
// code by unwrapping to the simulator's typed sentinels.
func exitCodeFor(err error) int {
	switch {
	case errors.Is(err, sim.ErrCrashConsistency):
		return 3
	case errors.Is(err, sim.ErrNoProgress):
		return 4
	case errors.Is(err, sim.ErrReserveExhausted):
		return 5
	default:
		return 1
	}
}

// run executes the CLI; factored out of main for testing. The int is
// the process exit code for a completed audit.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlfault", flag.ContinueOnError)
	fs.SetOutput(stdout)
	def := fault.DefaultMatrix()
	var (
		designs   = fs.String("designs", "", "comma-separated design kinds (default: every registered design)")
		workloads = fs.String("workloads", strings.Join(def.Workloads, ","), "comma-separated benchmarks")
		modes     = fs.String("modes", joinModes(def.Modes), "comma-separated fault modes")
		seeds     = fs.String("seeds", joinSeeds(def.Seeds), "comma-separated injection seeds")
		points    = fs.Int("points", def.Points, "crash points sampled per run")
		scale     = fs.Int("scale", def.Scale, "workload input-size multiplier")
		verbose   = fs.Bool("v", false, "print every failing cell")
		version   = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *version {
		fmt.Fprintln(stdout, hostinfo.Version("wlfault"))
		return 0, nil
	}

	m := def
	if *designs != "" {
		names, err := expt.Kinds.Resolve("-designs", strings.Split(*designs, ","))
		if err != nil {
			return 0, err
		}
		// Canonical registry order, deduplicated: the audit table is
		// identical no matter how -designs was spelled.
		m.Designs = slices.DeleteFunc(expt.AllKinds(), func(k expt.Kind) bool { return !slices.Contains(names, string(k)) })
	}
	names, err := expt.Workloads.Resolve("-workloads", strings.Split(*workloads, ","))
	if err != nil {
		return 0, err
	}
	slices.Sort(names)
	m.Workloads = slices.Compact(names)
	m.Modes = nil
	for _, s := range strings.Split(*modes, ",") {
		mode := fault.Mode(strings.TrimSpace(s))
		if !mode.Valid() {
			return 0, fmt.Errorf("unknown fault mode %q (have %s)", s, joinModes(fault.Modes()))
		}
		m.Modes = append(m.Modes, mode)
	}
	m.Seeds = nil
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad seed %q: %v", s, err)
		}
		m.Seeds = append(m.Seeds, v)
	}
	if *scale < 1 {
		return 0, fmt.Errorf("-scale %d: want at least 1", *scale)
	}
	if *points < 1 {
		return 0, fmt.Errorf("-points %d: want at least 1", *points)
	}
	m.Points = *points
	m.Scale = *scale

	rep, err := fault.Audit(m)
	if err != nil {
		return 0, err
	}
	fmt.Fprint(stdout, rep.Table().String())

	if *verbose {
		for _, c := range rep.Failures() {
			fmt.Fprintf(stdout, "FAIL %s/%s mode=%s seed=%d: %s (crashes=%d torn=%d dropped=%d) %s\n",
				c.Design, c.Workload, c.Mode, c.Seed, c.Outcome,
				c.Crashes, c.TornWrites, c.DroppedACKs, c.Detail)
		}
	}

	// "broken" is the audit's negative control: only a deviation from
	// the expected verdict (sound design failing, control passing) is
	// an audit failure.
	unexpected := 0
	for _, d := range m.Designs {
		name := string(d)
		pass := rep.DesignPass(name)
		expectFail := name == string(expt.KindBroken)
		if pass == expectFail {
			unexpected++
			want := "PASS"
			if expectFail {
				want = "FAIL"
			}
			fmt.Fprintf(stdout, "UNEXPECTED: %s got %s, want %s\n", name, verdictOf(pass), want)
		}
	}
	if unexpected > 0 {
		fmt.Fprintf(stdout, "audit: %d unexpected verdict(s)\n", unexpected)
		return 2, nil
	}
	fmt.Fprintln(stdout, "audit: all verdicts as expected")
	return 0, nil
}

func verdictOf(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

func joinModes(ms []fault.Mode) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = string(m)
	}
	return strings.Join(parts, ",")
}

func joinSeeds(ss []uint64) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}
