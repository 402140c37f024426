// Command wlbench regenerates the paper's tables and figures, and runs
// the crash-resume gate against the wlserve sweep service.
//
// Usage:
//
//	wlbench -experiment fig4            # one experiment
//	wlbench -experiment all             # everything, in paper order
//	wlbench -list                       # show available experiments
//	wlbench -experiment fig5 -workloads sha,qsort -scale 2
//	wlbench -experiment fig4 -out dir   # also save the output to dir/fig4.txt
//	wlbench -chaos -serve-bin ./wlserve -golden g.json -seed 7
//
// -chaos crashes a real wlserve binary mid-sweep: two overlapping
// sweeps, SIGKILL at a seed-chosen journal append, restart on the same
// data directory (a fresh temp dir the gate removes), resubmit, and
// check the stitched matrix against the committed golden.
//
// Exit codes (scripts and CI branch on these, mirroring wlfault):
//
//	0  requested run completed, every check passed
//	1  usage or infrastructure error (bad flags, unknown experiment, I/O)
//	3  the -chaos gate failed (lost journal work, recomputation, or a
//	   stitched matrix that diverged from the committed golden)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/hostinfo"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		os.Exit(exitCodeFor(err))
	}
}

// errChaos marks a failed crash-resume gate: durable work was lost,
// journaled cells recomputed, or the stitched matrix drifted. It wraps
// the detailed error, so errors.Is sees it anywhere in the chain.
var errChaos = errors.New("chaos gate failed")

// exitCodeFor maps a run-aborting error to its documented exit code.
func exitCodeFor(err error) int {
	if errors.Is(err, errChaos) {
		return 3
	}
	return 1
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
		chaos      = fs.Bool("chaos", false, "crash a wlserve mid-sweep, restart it, resubmit, and verify bit-identical stitching against -golden")
		traces     = fs.String("traces", "", "with -chaos: comma-separated power-trace subset (default: none,tr1,tr3)")
		golden     = fs.String("golden", "", "with -chaos: the committed golden JSON the stitched matrix must match")
		seed       = fs.Int64("seed", 0, "with -chaos: RNG seed for the kill point (0 = time-derived)")
		serveBin   = fs.String("serve-bin", "", "with -chaos: path to the wlserve binary to crash (required)")
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
	var wls, trNames []string
	if *workloads != "" {
		if wls, err = expt.Workloads.Resolve("-workloads", strings.Split(*workloads, ",")); err != nil {
			return err
		}
	}

	if *chaos {
		if *traces != "" {
			if trNames, err = expt.Traces.Resolve("-traces", strings.Split(*traces, ",")); err != nil {
				return err
			}
		}
		// The gate proves bit-identical crash stitching; a
		// tolerance-bounded tier has no bit-identity to prove.
		if tier != sim.TierExact {
			return fmt.Errorf("-chaos requires the exact tier")
		}
		return runChaosServe(*seed, *golden, wls, trNames, *serveBin, stdout)
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

	if *scale < 1 {
		return fmt.Errorf("-scale %d: want at least 1", *scale)
	}
	ctx := expt.Context{Scale: *scale, Workloads: wls, Parallelism: *parallel, CheckInvariants: *check, Tier: tier}

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
		fmt.Fprintf(stdout, "==== %s: %s ====\n\n%s\n\n", e.ID, e.Title, out)
		// Host time goes to stderr: stdout is the evaluation itself,
		// which must be identical on every host.
		fmt.Fprintf(os.Stderr, "%s: elapsed %.1fs\n", e.ID, time.Since(start).Seconds())
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, e.ID+".txt"), []byte(out), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
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

// runChaosServe is the crash-resume gate: two overlapping sweeps are
// submitted concurrently to the wlserve binary serveBin, the server is
// SIGKILL'd at a seed-chosen journal append, restarted on the same
// data directory (a fresh temp dir, removed afterwards), and both
// sweeps resubmitted. The gate fails (exit 3) unless
//
//   - zero journaled cells recompute: run 2 computes exactly the
//     feasible cells no durable journal record covers,
//   - the stitched full sweep is bit-identical to the committed golden,
//   - duplicate cells are computed exactly once, with the dedup
//     observable in the metrics (every feasible overlap cell is served
//     to exactly one sweep from the shared store),
//   - the restarted server's /metrics counts the same computed and
//     shared cells as the two done events.
func runChaosServe(seed int64, goldenPath string, wls, trNames []string, serveBin string, stdout io.Writer) error {
	if goldenPath == "" {
		return fmt.Errorf("-chaos needs -golden: the gate verifies the stitched matrix against the committed golden")
	}
	if serveBin == "" {
		return fmt.Errorf("-chaos needs -serve-bin: the gate crashes a real wlserve binary")
	}
	committed, err := expt.LoadGoldenFile(goldenPath)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	dataDir, err := os.MkdirTemp("", "wlbench-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	// Sweep A is the full golden matrix (restricted by -workloads /
	// -traces); sweep B overlaps it on the paper's figure designs.
	specA := serve.Spec{Workloads: wls, Traces: trNames}
	var figs []string
	for _, k := range expt.FigureKinds() {
		figs = append(figs, string(k))
	}
	specB := serve.Spec{Designs: figs, Workloads: wls, Traces: trNames}
	subset := len(wls) > 0 || len(trNames) > 0

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
	cmd1, base1, err := serve.StartProcess(serveBin, dataDir, killAt)
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
		return chaosFail("server finished both sweeps without dying (kill at append %d)", killAt)
	}
	fmt.Fprintf(stdout, "chaos-serve: server killed mid-sweep; restarting on %s\n", dataDir)

	// Run 2: restart on the same data dir, resubmit both sweeps.
	cmd2, base2, err := serve.StartProcess(serveBin, dataDir, 0)
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
