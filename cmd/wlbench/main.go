// Command wlbench regenerates the paper's tables and figures.
//
// Usage:
//
//	wlbench -experiment fig4            # one experiment
//	wlbench -experiment all             # everything, in paper order
//	wlbench -list                       # show available experiments
//	wlbench -experiment fig5 -workloads sha,qsort -scale 2
//	wlbench -experiment fig4 -out dir   # also save the output to dir/fig4.txt
//	wlbench -sweep -journal j.jsonl     # resumable golden sweep matrix
//	wlbench -chaos -seed 7              # kill a sweep mid-journal, resume, verify
//	wlbench -chaos -serve -golden g.json  # same gate against the wlserve HTTP service
//
// Exit codes (scripts and CI branch on these, mirroring wlfault):
//
//	0  requested run completed, every check passed
//	1  usage or infrastructure error (bad flags, unknown experiment, I/O)
//	2  a -golden check completed and found divergent results
//	3  the -chaos gate failed (lost journal work, recomputation, or a
//	   stitched matrix that diverged from the committed golden)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/hostinfo"
	"wlcache/internal/power"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
)

// chaosChildEnv carries the re-exec'd chaos child's argv, joined by
// chaosChildSep. Routing the child through an env var instead of real
// argv lets the same interception work both in the installed binary
// (main) and under `go test` (TestMain), where os.Executable() is the
// test binary and flag parsing belongs to the test framework.
const (
	chaosChildEnv = "WLBENCH_CHAOS_CHILD"
	chaosChildSep = "\x1f"
)

func main() {
	args := os.Args[1:]
	if child, ok := os.LookupEnv(chaosChildEnv); ok {
		os.Unsetenv(chaosChildEnv)
		args = strings.Split(child, chaosChildSep)
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		os.Exit(exitCodeFor(err))
	}
}

// Sentinel errors classifying a failed run for exitCodeFor. They wrap
// the detailed error, so errors.Is sees them anywhere in the chain.
var (
	// errMismatch marks a completed -sweep golden check that found
	// divergent results.
	errMismatch = errors.New("results diverged from golden")
	// errChaos marks a failed crash-resume gate: durable work was lost,
	// journaled cells recomputed, or the stitched matrix drifted.
	errChaos = errors.New("chaos gate failed")
)

// exitCodeFor maps a run-aborting error to its documented exit code.
// A chaos failure stays exit 3 even when the underlying symptom is a
// golden mismatch: the gate, not the comparison, is what failed.
func exitCodeFor(err error) int {
	switch {
	case errors.Is(err, errChaos):
		return 3
	case errors.Is(err, errMismatch):
		return 2
	default:
		return 1
	}
}

// chaosFail builds a chaos-gate failure: exit code 3.
func chaosFail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errChaos, fmt.Sprintf(format, args...))
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		experiment = fs.String("experiment", "", "experiment id (see -list), or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		workloads  = fs.String("workloads", "", "comma-separated benchmark subset (default: all 23)")
		scale      = fs.Int("scale", 1, "workload input-size multiplier")
		parallel   = fs.Int("parallel", 0, "max concurrent simulations (0 = NumCPU)")
		check      = fs.Bool("check", false, "enable expensive correctness invariants")
		outDir     = fs.String("out", "", "also write each experiment's output to <out>/<id>.txt")
		sweep      = fs.Bool("sweep", false, "run the pinned golden sweep matrix (resumable with -journal)")
		chaos      = fs.Bool("chaos", false, "kill a -sweep at a random journal append, resume it, and verify bit-identical stitching")
		journal    = fs.String("journal", "", "with -sweep: content-addressed cell journal; journaled cells are served, not recomputed, on restart")
		traces     = fs.String("traces", "", "with -sweep/-chaos: comma-separated power-trace subset (default: none,tr1,tr3)")
		golden     = fs.String("golden", "", "with -sweep/-chaos: compare produced cells against this committed golden JSON")
		killAfter  = fs.Int("kill-after", 0, "with -sweep: SIGKILL this process after N journal appends (chaos harness internal)")
		seed       = fs.Int64("seed", 0, "with -chaos: RNG seed for the kill point (0 = time-derived)")
		serveMode  = fs.Bool("serve", false, "with -chaos: run the gate against the wlserve HTTP service (two overlapping concurrent sweeps, SIGKILL, restart, resubmit)")
		serveBin   = fs.String("serve-bin", "", "with -chaos -serve: path to a wlserve binary to crash (default: re-exec this binary as the server)")
		serveChild = fs.Bool("serve-child", false, "internal: act as the wlserve server (chaos harness child)")
		addr       = fs.String("addr", "127.0.0.1:0", "with -serve-child: listen address")
		dataDir    = fs.String("data", "", "with -chaos -serve: sweep-journal data directory (default: a temp dir)")
		tierFlag   = fs.String("tier", "exact", "engine fidelity: exact (bit-exact) or fast (ε-bounded batched engine, DESIGN.md §16)")
		version    = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tier, err := sim.ParseTier(*tierFlag)
	if err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, hostinfo.Version("wlbench"))
		return nil
	}

	if *serveChild {
		return runServeChild(*addr, *dataDir, *killAfter, stdout)
	}

	if *sweep || *chaos {
		var wls []string
		if *workloads != "" {
			wls = strings.Split(*workloads, ",")
		}
		srcs, err := parseTraces(*traces)
		if err != nil {
			return err
		}
		if *chaos {
			// The chaos gates prove bit-identical crash stitching; a
			// tolerance-bounded tier has no bit-identity to prove.
			if tier != sim.TierExact {
				return fmt.Errorf("-chaos requires the exact tier")
			}
			if *serveMode {
				return runChaosServe(*seed, *dataDir, *golden, wls, srcs, *serveBin, stdout)
			}
			return runChaos(*seed, *journal, *golden, wls, srcs, *parallel, stdout)
		}
		return runSweep(tier, *journal, *golden, wls, srcs, *parallel, *killAfter, stdout)
	}

	if *list || *experiment == "" {
		fmt.Fprintln(stdout, "Available experiments (wlbench -experiment <id>):")
		for _, e := range expt.Experiments() {
			fmt.Fprintf(stdout, "  %-15s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "  all             run everything in paper order")
		if *experiment == "" && !*list {
			return fmt.Errorf("no experiment selected")
		}
		return nil
	}

	ctx := expt.Context{Scale: *scale, Parallelism: *parallel, CheckInvariants: *check, Tier: tier}
	if *workloads != "" {
		ctx.Workloads = strings.Split(*workloads, ",")
	}

	var todo []expt.Experiment
	if *experiment == "all" {
		todo = expt.Experiments()
	} else {
		e, ok := expt.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q; try -list", *experiment)
		}
		todo = []expt.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range todo {
		start := time.Now()
		out, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "==== %s: %s ====\n\n%s\n(elapsed %.1fs)\n\n", e.ID, e.Title, out, time.Since(start).Seconds())
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, e.ID+".txt"), []byte(out), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseTraces maps a comma-separated -traces value to power sources,
// rejecting unknown names (power.Get panics on them much later, deep
// inside a worker).
func parseTraces(s string) ([]power.Source, error) {
	if s == "" {
		return nil, nil
	}
	valid := map[power.Source]bool{power.None: true}
	for _, src := range power.Sources() {
		valid[src] = true
	}
	var out []power.Source
	for _, name := range strings.Split(s, ",") {
		src := power.Source(strings.TrimSpace(name))
		if !valid[src] {
			return nil, fmt.Errorf("unknown power trace %q", name)
		}
		out = append(out, src)
	}
	return out, nil
}

// runSweep executes the pinned golden matrix through the
// crash-resumable runner. With -journal, completed cells are durably
// recorded as they finish and a restarted sweep serves them from the
// journal instead of recomputing. With -kill-after N the process
// SIGKILLs itself after the N-th journal append — from inside the
// append lock, so exactly N records are durable — which is how the
// chaos harness produces a crash with a precisely known footprint.
func runSweep(tier sim.Tier, journal, goldenPath string, wls []string, srcs []power.Source, parallel, killAfter int, stdout io.Writer) error {
	ctx := expt.Context{Parallelism: parallel, Journal: journal, Tier: tier}
	if killAfter > 0 {
		ctx.AfterJournal = func(done int) {
			if done == killAfter {
				// Die the way a power failure would: no deferred
				// cleanup, no flushes. Blocking forever afterwards keeps
				// the append lock held so no further record can become
				// durable between the kill request and process death.
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
				select {}
			}
		}
	}
	cells, m, err := expt.RunGoldenMatrix(ctx, wls, srcs)
	if err != nil {
		return err
	}
	infeasible := 0
	for _, c := range cells {
		if c.Err != "" {
			infeasible++
		}
	}
	fmt.Fprintf(stdout, "sweep: %d cells (%d infeasible), %d served from journal, %d computed\n",
		len(cells), infeasible, m.FromJournal, m.Computed)
	if goldenPath != "" {
		if err := checkSweepGolden(tier, cells, goldenPath, len(wls) > 0 || len(srcs) > 0); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "golden check passed: %d cells match %s\n", len(cells), goldenPath)
	}
	return nil
}

// checkSweepGolden compares sweep cells against a committed golden
// matrix; subset permits a restricted sweep to cover fewer cells. The
// golden is always generated by the exact tier: exact sweeps must match
// it bit-identically, fast sweeps within the committed FastTolerance
// (counts still exact).
func checkSweepGolden(tier sim.Tier, cells []expt.GoldenCell, goldenPath string, subset bool) error {
	committed, err := expt.LoadGoldenFile(goldenPath)
	if err != nil {
		return err
	}
	if tier == sim.TierFast {
		if err := expt.CompareGoldenCellsTol(cells, committed, subset, expt.FastTolerance()); err != nil {
			return fmt.Errorf("%w: %w", errMismatch, err)
		}
		return nil
	}
	if err := expt.CompareGoldenCells(cells, committed, subset); err != nil {
		return fmt.Errorf("%w: %w", errMismatch, err)
	}
	return nil
}

// runChaos is the crash-resume proof: re-exec this binary as a child
// sweep that SIGKILLs itself after a seed-chosen number of journal
// appends, then resume the sweep in-process and demand (a) every
// journaled cell is served without recomputation — exactly killAt, the
// child died holding the append lock — and (b) the stitched matrix is
// bit-identical to the committed golden.
func runChaos(seed int64, journal, goldenPath string, wls []string, srcs []power.Source, parallel int, stdout io.Writer) error {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))

	if journal == "" {
		dir, err := os.MkdirTemp("", "wlbench-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		journal = filepath.Join(dir, "journal.jsonl")
	}

	nw, nt := len(wls), len(srcs)
	if nw == 0 {
		nw = len(expt.GoldenWorkloads())
	}
	if nt == 0 {
		nt = len(expt.GoldenSources())
	}
	total := len(expt.AllKinds()) * nw * nt
	// Kill within the first half of the matrix: infeasible cells never
	// journal, so a later kill point could outlive the sweep.
	killAt := 1 + rng.Intn(max(1, total/2))
	fmt.Fprintf(stdout, "chaos: seed %d, killing child sweep after %d of %d journal appends\n", seed, killAt, total)

	childArgs := []string{"-sweep", "-journal", journal, "-kill-after", strconv.Itoa(killAt)}
	if len(wls) > 0 {
		childArgs = append(childArgs, "-workloads", strings.Join(wls, ","))
	}
	if len(srcs) > 0 {
		names := make([]string, len(srcs))
		for i, s := range srcs {
			names[i] = string(s)
		}
		childArgs = append(childArgs, "-traces", strings.Join(names, ","))
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), chaosChildEnv+"="+strings.Join(childArgs, chaosChildSep))
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err == nil {
		return chaosFail("child sweep finished without dying (kill-after %d)", killAt)
	}
	fmt.Fprintf(stdout, "chaos: child killed mid-sweep; resuming from %s\n", journal)

	cells, m, err := expt.RunGoldenMatrix(expt.Context{Parallelism: parallel, Journal: journal}, wls, srcs)
	if err != nil {
		return chaosFail("resume failed: %v", err)
	}
	if m.FromJournal != killAt {
		return chaosFail("resume served %d cells from the journal, want exactly %d — journaled work was lost or recomputed", m.FromJournal, killAt)
	}
	// Infeasible cells never journal (there is no result to record);
	// they re-fail deterministically on every pass and are accounted
	// separately from computed successes.
	if m.FromJournal+m.Computed+m.OptionalFailed != total {
		return chaosFail("%d journaled + %d computed + %d infeasible does not cover the %d-cell matrix",
			m.FromJournal, m.Computed, m.OptionalFailed, total)
	}
	if goldenPath != "" {
		if err := checkSweepGolden(sim.TierExact, cells, goldenPath, len(wls) > 0 || len(srcs) > 0); err != nil {
			return chaosFail("stitched results diverged: %v", err)
		}
	}
	fmt.Fprintf(stdout, "chaos: PASS — %d cells stitched (%d journaled + %d computed + %d infeasible), zero recomputation\n",
		total, m.FromJournal, m.Computed, m.OptionalFailed)
	return nil
}

// runServeChild is the chaos harness's server half: an in-process
// wlserve instance with the same kill seam as the real binary. The
// harness re-execs wlbench into this mode when no -serve-bin is given,
// so the gate runs hermetically under `go test` too.
func runServeChild(addr, dataDir string, killAfter int, stdout io.Writer) error {
	if dataDir == "" {
		return fmt.Errorf("-serve-child needs -data")
	}
	cfg := serve.Config{DataDir: dataDir}
	if killAfter > 0 {
		n := killAfter
		cfg.AfterJournal = func(total int) {
			if total < n {
				return
			}
			// Die like a power failure: no cleanup, no flushes. The
			// process outlives the kill request briefly, so every
			// append from the n-th on blocks for good, holding its own
			// sweep's journal lock until the process is gone (see the
			// bound derived in runChaosServe).
			if total == n {
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
			}
			select {}
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	return srv.Serve(ln)
}

// startServeProc launches a wlserve server process — the given binary,
// or this binary re-exec'd into -serve-child — and returns once it
// prints its listen address.
func startServeProc(serveBin, dataDir string, killAfter int) (*exec.Cmd, string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-data", dataDir}
	if killAfter > 0 {
		args = append(args, "-kill-after", strconv.Itoa(killAfter))
	}
	var cmd *exec.Cmd
	if serveBin != "" {
		cmd = exec.Command(serveBin, args...)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, "", err
		}
		cmd = exec.Command(exe)
		childArgs := append([]string{"-serve-child"}, args...)
		cmd.Env = append(os.Environ(), chaosChildEnv+"="+strings.Join(childArgs, chaosChildSep))
	}
	cmd.Stderr = io.Discard
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if a, ok := strings.CutPrefix(line, "listening on "); ok {
			// Keep draining stdout so the server never blocks on a full
			// pipe.
			go io.Copy(io.Discard, pipe)
			return cmd, "http://" + a, nil
		}
	}
	err = cmd.Wait()
	return nil, "", fmt.Errorf("server exited before listening: %v", err)
}

// sweepOutcome is one client's view of a completed (or crashed) sweep.
type sweepOutcome struct {
	cells []serve.Event
	done  *serve.Event
	err   error
}

// streamSweep submits a spec and drains its whole event stream.
func streamSweep(ctx context.Context, cl *serve.Client, spec serve.Spec) sweepOutcome {
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return sweepOutcome{err: err}
	}
	defer st.Close()
	cells, done, err := st.Drain()
	return sweepOutcome{cells: cells, done: done, err: err}
}

// runChaosServe is the end-to-end service chaos gate: two overlapping
// sweeps are submitted to a live wlserve concurrently, the server is
// SIGKILL'd at a seed-chosen journal append, restarted, and both sweeps
// resubmitted. The gate fails (exit 3) unless
//
//   - zero journaled cells recompute: run 2 computes exactly the
//     feasible cells no durable journal record covers,
//   - the stitched full sweep is bit-identical to the committed golden,
//   - duplicate cells are computed exactly once, with the dedup
//     observable in the metrics (every feasible overlap cell is served
//     to exactly one sweep from the shared store),
//   - the restarted server's /metrics counts the same computed and
//     shared cells as the two done events.
func runChaosServe(seed int64, dataDir, goldenPath string, wls []string, srcs []power.Source, serveBin string, stdout io.Writer) error {
	if goldenPath == "" {
		return fmt.Errorf("-chaos -serve needs -golden: the gate verifies the stitched matrix against the committed golden")
	}
	committed, err := expt.LoadGoldenFile(goldenPath)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "wlbench-serve-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}

	// Sweep A is the full golden matrix (restricted by -workloads /
	// -traces); sweep B overlaps it on the paper's figure designs.
	trNames := make([]string, len(srcs))
	for i, s := range srcs {
		trNames[i] = string(s)
	}
	specA := serve.Spec{Workloads: wls, Traces: trNames}
	var figs []string
	for _, k := range expt.FigureKinds() {
		figs = append(figs, string(k))
	}
	specB := serve.Spec{Designs: figs, Workloads: wls, Traces: trNames}
	subset := len(wls) > 0 || len(srcs) > 0

	// The committed golden, restricted to the sweep population, predicts
	// exactly which cells are feasible (journalable) and which fail.
	feasibleA, infeasibleA, err := countGolden(committed, nil, wls, trNames)
	if err != nil {
		return err
	}
	feasibleB, infeasibleB, err := countGolden(committed, figs, wls, trNames)
	if err != nil {
		return err
	}
	if feasibleA < 2 {
		return fmt.Errorf("sweep population has %d feasible cells; the gate needs at least 2", feasibleA)
	}
	killAt := 1 + rng.Intn(feasibleA/2)
	fmt.Fprintf(stdout, "chaos-serve: seed %d, killing server after %d of %d feasible cells journal\n", seed, killAt, feasibleA)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Run 1: both sweeps live when the server dies mid-journal.
	cmd1, base1, err := startServeProc(serveBin, dataDir, killAt)
	if err != nil {
		return err
	}
	defer cmd1.Process.Kill()
	cl1 := &serve.Client{Base: base1}
	if err := cl1.WaitReady(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); streamSweep(ctx, cl1, specA) }()
	go func() { defer wg.Done(); streamSweep(ctx, cl1, specB) }()
	wg.Wait()
	if err := cmd1.Wait(); err == nil {
		return chaosFail("server finished both sweeps without dying (kill-after %d)", killAt)
	}
	fmt.Fprintf(stdout, "chaos-serve: server killed mid-sweep; restarting on %s\n", dataDir)

	// Run 2: restart on the same data dir, resubmit both sweeps.
	cmd2, base2, err := startServeProc(serveBin, dataDir, 0)
	if err != nil {
		return err
	}
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cl2 := &serve.Client{Base: base2}
	if err := cl2.WaitReady(ctx); err != nil {
		return err
	}
	boot, err := scrapeSeries(ctx, cl2, "wlserve_store_loaded")
	if err != nil {
		return err
	}
	// The durable-record bound. Each sweep has its own journal, whose
	// appends are serialized under its lock: write, fsync, then the
	// server-wide count and the kill seam, still under the lock. A record
	// survives SIGKILL once write returns, before it is counted, and the
	// process runs on for a while after the kill request. The kill fires
	// inside the killAt-th counted append, and every later append blocks
	// in the seam for good, so no journal takes a record after its first
	// append counted past killAt. At death the killing journal holds only
	// counted records; the other sweep's journal holds at most one more,
	// the append in flight when the kill fired (counted after it, or
	// never).
	// Hence killAt ≤ loaded ≤ killAt+1.
	loaded := int(boot[0])
	if loaded < killAt {
		return chaosFail("restart reloaded %d durable cells, the crash guaranteed %d — durable work was lost", loaded, killAt)
	}
	if loaded > killAt+1 {
		return chaosFail("restart reloaded %d durable cells, the kill seam allows at most %d (%d + 1 in flight on the concurrent sweep) — appends continued past the kill", loaded, killAt+1, killAt)
	}

	outA := make(chan sweepOutcome, 1)
	outB := make(chan sweepOutcome, 1)
	go func() { outA <- streamSweep(ctx, cl2, specA) }()
	go func() { outB <- streamSweep(ctx, cl2, specB) }()
	a, b := <-outA, <-outB
	if a.err != nil || a.done == nil {
		return chaosFail("resumed sweep A died: done=%v err=%v", a.done, a.err)
	}
	if b.err != nil || b.done == nil {
		return chaosFail("resumed sweep B died: done=%v err=%v", b.done, b.err)
	}
	dA, dB := a.done.Metrics, b.done.Metrics

	// Per-sweep coverage: served + computed feasible cells plus
	// deterministic failures account for every cell, nothing skipped.
	if dA.FromJournal+dA.FromShared+dA.Computed != feasibleA || dA.Failed != infeasibleA || dA.Skipped != 0 {
		return chaosFail("sweep A accounting off: %d journal + %d shared + %d computed + %d failed + %d skipped over %d feasible / %d infeasible",
			dA.FromJournal, dA.FromShared, dA.Computed, dA.Failed, dA.Skipped, feasibleA, infeasibleA)
	}
	if dB.FromJournal+dB.FromShared+dB.Computed != feasibleB || dB.Failed != infeasibleB || dB.Skipped != 0 {
		return chaosFail("sweep B accounting off: %d journal + %d shared + %d computed + %d failed + %d skipped over %d feasible / %d infeasible",
			dB.FromJournal, dB.FromShared, dB.Computed, dB.Failed, dB.Skipped, feasibleB, infeasibleB)
	}
	// Zero recompute and exactly-once dedup: across both sweeps, run 2
	// computes each feasible cell no journal held exactly once.
	if got, want := dA.Computed+dB.Computed, feasibleA-loaded; got != want {
		return chaosFail("run 2 computed %d cells, want exactly %d (%d feasible − %d durable) — journaled cells recomputed or work was double-counted", got, want, feasibleA, loaded)
	}
	// Dedup observable: every feasible cell of the overlapping sweep is
	// served to exactly one of the two sweeps from the shared store
	// (whichever did not journal or compute it itself).
	if got := dA.FromShared + dB.FromShared; got != feasibleB {
		return chaosFail("shared-store dedup served %d cells, want exactly %d (the feasible overlap)", got, feasibleB)
	}

	// The server's own /metrics counters must tell the same story as the
	// two done events: one metrics surface, audited against the streams.
	after, err := scrapeSeries(ctx, cl2,
		`wlserve_cells_total{outcome="computed"}`, `wlserve_cells_total{outcome="from_shared"}`)
	if err != nil {
		return err
	}
	if int(after[0]) != dA.Computed+dB.Computed || int(after[1]) != dA.FromShared+dB.FromShared {
		return chaosFail("/metrics counts %v computed and %v shared cells, the sweeps' done events %d and %d",
			after[0], after[1], dA.Computed+dB.Computed, dA.FromShared+dB.FromShared)
	}

	// Bit-identity: the full sweep's streamed cells must stitch to the
	// committed golden.
	gotA := make([]expt.GoldenCell, 0, len(a.cells))
	for _, ev := range a.cells {
		gc := expt.GoldenCell{Kind: ev.Kind, Workload: ev.Workload, Trace: ev.Trace, Err: ev.Error}
		if ev.Error == "" && ev.Result != nil {
			gc.Fields = expt.FlattenResult(*ev.Result)
		}
		gotA = append(gotA, gc)
	}
	if err := expt.CompareGoldenCells(gotA, committed, subset); err != nil {
		return chaosFail("stitched results diverged: %v", err)
	}

	fmt.Fprintf(stdout, "chaos-serve: PASS — %d durable cells reloaded, %d computed once across both sweeps, %d deduped via shared store, stitched matrix bit-identical\n",
		loaded, dA.Computed+dB.Computed, dA.FromShared+dB.FromShared)
	return nil
}

// scrapeSeries reads the named series from one validated /metrics
// scrape, in order, erroring if any is absent: a missing series is a
// broken metrics surface, not a zero.
func scrapeSeries(ctx context.Context, cl *serve.Client, series ...string) ([]float64, error) {
	m, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(series))
	for i, name := range series {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("%s/metrics has no series %s", cl.Base, name)
		}
		out[i] = v
	}
	return out, nil
}

// countGolden counts feasible (Err == "") and infeasible committed
// cells inside the population selected by the given design / workload /
// trace restrictions (nil = unrestricted), erroring if the golden does
// not pin the whole population.
func countGolden(committed []expt.GoldenCell, designs, wls, trs []string) (feasible, infeasible int, err error) {
	byID := make(map[string]expt.GoldenCell, len(committed))
	for _, c := range committed {
		byID[c.ID()] = c
	}
	ks := designs
	if len(ks) == 0 {
		for _, k := range expt.AllKinds() {
			ks = append(ks, string(k))
		}
	}
	if len(wls) == 0 {
		wls = expt.GoldenWorkloads()
	}
	if len(trs) == 0 {
		for _, s := range expt.GoldenSources() {
			trs = append(trs, string(s))
		}
	}
	for _, k := range ks {
		for _, wl := range wls {
			for _, tr := range trs {
				c, ok := byID[k+"/"+wl+"/"+tr]
				if !ok {
					return 0, 0, fmt.Errorf("golden does not pin cell %s/%s/%s; the chaos gate needs the full population pinned", k, wl, tr)
				}
				if c.Err == "" {
					feasible++
				} else {
					infeasible++
				}
			}
		}
	}
	return feasible, infeasible, nil
}
