package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/isa"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// simWorkload is a matrix of cells that runs on the sweep runner pass
// after pass, each pass in a freshly shuffled order.
type simWorkload struct {
	tier    sim.Tier
	kinds   []expt.Kind
	kernels []string
	sources []power.Source
	capF    float64 // capacitor (F); 0 keeps the paper's 1 µF
	matrix  string  // the expected-file matrix that pins these cells
}

// figKinds are the designs Figures 4-6 compare, baseline first.
var figKinds = []expt.Kind{expt.KindNVSRAM, expt.KindNVCache, expt.KindVCacheWT, expt.KindReplay, expt.KindWL}

// figKernels are seven of the figures' 23 kernels, from both suites and
// from the cheapest (basicmath) to memory-bound ones (qsort). All 23 take
// 9 s of exact-tier time per pass; these take 1.6 s, so a cell repeats
// about 25 times in a run, which its fastest-repetition time needs.
var figKernels = []string{"basicmath", "adpcmencode", "jpegdecode", "dijkstra", "FFT", "sha", "qsort"}

// outageKinds cover every design with a distinct outage path, including
// the by-value Access design (nvsram-practical) and the dynamic and
// write-buffer variants the figure matrix leaves out.
var outageKinds = []expt.Kind{expt.KindWL, expt.KindWLDyn, expt.KindNVCache, expt.KindVCacheWT,
	expt.KindReplay, expt.KindWTBuffer, expt.KindNVSRAMPractical, expt.KindNoCache}

// outageKernels mix long compute-bound and memory-bound kernels.
var outageKernels = []string{"FFT", "FFT_i", "qsort", "sha", "jpegdecode", "patricia"}

// outageCapF is the smallest Figure 10(b) capacitor on which WL-Cache
// is feasible; it keeps on-periods short, so outages dominate.
const outageCapF = 344e-9

// simWorkloads returns the three simulator workloads by name.
func simWorkloads() map[string]simWorkload {
	fig := simWorkload{
		kinds:   figKinds,
		kernels: figKernels,
		sources: []power.Source{power.None, power.Trace1, power.Trace2},
		matrix:  "fig",
	}
	fast := fig
	fast.tier = sim.TierFast
	return map[string]simWorkload{
		"fig-exact": fig,
		"fig-fast":  fast,
		"outage-fast": {
			tier:    sim.TierFast,
			kinds:   outageKinds,
			kernels: outageKernels,
			sources: []power.Source{power.Trace3},
			capF:    outageCapF,
			matrix:  "outage",
		},
	}
}

// cellSpec is one (design, kernel, trace) cell.
type cellSpec struct {
	kind   expt.Kind
	kernel string
	src    power.Source
}

func (c cellSpec) id() string { return fmt.Sprintf("%s/%s/%s", c.kind, c.kernel, c.src) }

// cells expands the matrix design-major, the order expected files use.
func (w simWorkload) cells() []cellSpec {
	var out []cellSpec
	for _, k := range w.kinds {
		for _, wl := range w.kernels {
			for _, src := range w.sources {
				out = append(out, cellSpec{k, wl, src})
			}
		}
	}
	return out
}

// rfProfiles are the paper's RF profiles (mean W, volatility, dead-zone
// probability) exactly as power.Get synthesizes tr1-tr3.
var rfProfiles = []struct {
	src              power.Source
	mean, vol, deadP float64
}{
	{power.Trace1, 13.0e-3, 0.55, 0.06},
	{power.Trace2, 6.3e-3, 0.80, 0.12},
	{power.Trace3, 5.0e-3, 1.10, 0.30},
}

// seededTraces synthesizes tr k with RNG seed seed+k-1, so seed 1
// reproduces the built-in traces sample for sample. power.None maps to
// nil, uninterrupted power.
func seededTraces(seed int64) map[power.Source]*power.Trace {
	out := map[power.Source]*power.Trace{power.None: nil}
	for k, p := range rfProfiles {
		out[p.src] = power.SynthesizeRF(string(p.src), seed+int64(k), p.mean, p.vol, p.deadP)
	}
	return out
}

// simulate runs one cell cold: a fresh design over an empty NVM, the
// initial charge-up (counted in the result), then the whole kernel.
// With st non-nil the design and the machine are wrapped to record the
// seams, and the build/run phases become spans.
func simulate(c cellSpec, w simWorkload, tr *power.Trace, st *cellStats) (sim.Result, error) {
	wl, ok := workload.ByName(c.kernel)
	if !ok {
		return sim.Result{}, fmt.Errorf("unknown kernel %q", c.kernel)
	}
	t0 := time.Now()
	cfg := sim.DefaultConfig()
	cfg.Tier = w.tier
	cfg.Trace = tr
	if w.capF > 0 {
		cfg.CapacitorF = w.capF
	}
	d, nvm := expt.NewDesign(c.kind, expt.Options{})
	program := func(m isa.Machine) uint32 { return wl.Run(m, 1) }
	if st != nil {
		d = wrapDesign(d, st)
		program = func(m isa.Machine) uint32 { return wl.Run(&tracedMachine{m: m, st: st}, 1) }
	}
	s, err := sim.New(cfg, d, nvm)
	if err != nil {
		return sim.Result{}, err
	}
	t1 := time.Now()
	res, err := s.Run(wl.Name, program)
	if st != nil {
		st.span("build", t0, t1)
		st.span("run", t1, time.Now())
	}
	return res, err
}

// passResult is what one pass over the matrix measured.
type passResult struct {
	traced  bool
	wall    time.Duration
	results []sim.Result // by cell index
	errs    []error      // simulation or outcome-check failure, by cell index
	dur     []time.Duration
	wait    []time.Duration
}

// runPass runs every cell once through runner.RunCells in the given
// order. Cells carry no fingerprint, so the runner never serves one
// from a cache: each is simulated. check validates each outcome inside
// the cell, so a wrong outcome is a failed cell.
func runPass(ctx context.Context, w simWorkload, cells []cellSpec, order []int, traces map[power.Source]*power.Trace,
	check func(cellSpec, sim.Result, error) error, rec *recorder) passResult {
	pr := passResult{
		traced:  rec != nil,
		results: make([]sim.Result, len(cells)),
		errs:    make([]error, len(cells)),
		dur:     make([]time.Duration, len(cells)),
		wait:    make([]time.Duration, len(cells)),
	}
	lanes := make(chan int, workers)
	for i := 1; i <= workers; i++ {
		lanes <- i
	}
	rcells := make([]runner.Cell, len(order))
	for i, ci := range order {
		c := cells[ci]
		rcells[i] = runner.Cell{ID: c.id(), Run: func(context.Context) (sim.Result, error) {
			var st *cellStats
			if rec != nil {
				lane := <-lanes
				defer func() { lanes <- lane }()
				st = rec.newCell(lane)
			}
			start := time.Now()
			res, err := simulate(c, w, traces[c.src], st)
			t := time.Now()
			err = check(c, res, err)
			if st != nil {
				st.span("check", t, time.Now())
				rec.endCell(st, c.id(), start, res.Instructions)
			}
			return res, err
		}}
	}
	rcfg := runner.Config{
		Workers: workers,
		Engine:  sim.EngineVersion,
		OnCell: func(d runner.CellDone) {
			ci := order[d.Index]
			pr.dur[ci], pr.wait[ci] = d.Dur, d.Wait
		},
	}
	start := time.Now()
	rep, _ := runner.RunCells(ctx, rcfg, rcells)
	pr.wall = time.Since(start)
	if rec != nil {
		rec.span(0, "pass", start, time.Now())
	}
	for i, ci := range order {
		pr.results[ci], pr.errs[ci] = rep.Results[i], rep.Errs[i]
	}
	return pr
}

// runSim measures a simulator workload: set-up, then passes until the
// next one would overrun cfg.seconds. With cfg.trace, odd passes are
// traced and profiled; end-to-end metrics come from untraced passes.
func runSim(cfg config, w simWorkload) (*report, error) {
	var (
		exp    *expected
		traces map[power.Source]*power.Trace
		cells  []cellSpec
	)
	setup, err := timeSetup(func() error {
		var err error
		exp, err = loadExpected(cfg.root)
		traces = seededTraces(cfg.seed)
		cells = w.cells()
		return err
	})
	if err != nil {
		return nil, err
	}
	check := func(c cellSpec, res sim.Result, err error) error {
		return exp.check(w.matrix, w.tier, cfg.seed, c, res, err)
	}

	var rec *recorder
	var prof *profiler
	if cfg.trace {
		rec = newRecorder()
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var passes []passResult
	slowdown, err := repeat(cfg, func(ctx context.Context, traced bool) (time.Duration, error) {
		var prec *recorder
		if traced {
			prec = rec
		}
		pr := runPass(ctx, w, cells, rng.Perm(len(cells)), traces, check, prec)
		passes = append(passes, pr)
		return pr.wall, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &report{passes: len(passes)}
	rep.e2e("setup_s", "s", setup/slowdown, setupRepeats)
	rep.attempted, rep.failed = tallyPasses(passes, cells)
	simE2E(rep, passes, slowdown)
	rep.e2e("max_rss_mb", "MB", maxRSSMB(), 1)
	rep.layer("host.slowdown", "ratio", slowdown, len(passes))
	if cfg.trace {
		profile := prof.stop()
		if err := simLayers(rep, passes, rec, profile); err != nil {
			return nil, err
		}
		if err := finishTrace(cfg, rep, rec, profile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tallyPasses counts attempted and failed cells. A cell fails when its
// simulation or outcome check failed, or when it does not reproduce the
// first pass bit for bit: traced and untraced passes must agree. The
// first few failures are printed to standard error.
func tallyPasses(passes []passResult, cells []cellSpec) (attempted, failed int) {
	first := passes[0]
	for pi, p := range passes {
		for i, c := range cells {
			attempted++
			err := p.errs[i]
			if err == nil && p.results[i] != first.results[i] {
				err = fmt.Errorf("%s: pass %d does not reproduce pass 0", c.id(), pi)
			}
			if err != nil {
				if failed++; failed <= 10 {
					fmt.Fprintln(os.Stderr, "bench:", err)
				}
			}
		}
	}
	return attempted, failed
}

// simE2E adds the end-to-end metrics, from untraced passes only. A
// cell's time is its fastest repetition over those passes (see
// fastest): throughput is one pass's instructions over the sum of those
// times, and request_ms_p50 is their median over the cells. Both are
// scaled to the reference host (see refCalibration).
func simE2E(rep *report, passes []passResult, slowdown float64) {
	var reps [][]time.Duration
	for _, p := range passes {
		if !p.traced {
			reps = append(reps, p.dur)
		}
	}
	best := fastest(reps)
	var instr float64
	for _, r := range passes[0].results {
		instr += float64(r.Instructions)
	}
	rep.e2e("sim_mips", "Minstr/s", instr/1e6/sum(best)*1e3*slowdown, len(reps))
	rep.e2e("request_ms_p50", "ms", quantile(best, 0.5)/slowdown, len(best))
}

// simLayers adds the per-layer metrics: the profile's layer split and
// the seam aggregates from traced passes, the runner's pool metrics from
// untraced ones, and the simulated counts of one pass, which repeat
// exactly from pass to pass.
func simLayers(rep *report, passes []passResult, rec *recorder, profile []byte) error {
	if err := addProfileLayers(rep, profile, rec.instr); err != nil {
		return err
	}
	var tracedWall, untracedWall, busy, pool, waitMS, nsPerInstr []float64
	tracedPasses := 0
	for _, p := range passes {
		if p.traced {
			tracedPasses++
			tracedWall = append(tracedWall, p.wall.Seconds())
			continue
		}
		untracedWall = append(untracedWall, p.wall.Seconds())
		busy = append(busy, sum(seconds(p.dur)))
		pool = append(pool, p.wall.Seconds()*workers)
		for i, r := range p.results {
			waitMS = append(waitMS, float64(p.wait[i].Nanoseconds())/1e6)
			nsPerInstr = append(nsPerInstr, ratio(float64(p.dur[i].Nanoseconds()), float64(r.Instructions)))
		}
	}
	addTraceOverhead(rep, tracedWall, untracedWall)
	rep.layer("runner.busy_frac", "fraction", ratio(sum(busy), sum(pool)), len(busy))
	rep.layer("runner.queue_wait_ms_p50", "ms", quantile(waitMS, 0.5), len(waitMS))
	rep.layer("runner.cell_ns_per_instr_p50", "ns/instr", quantile(nsPerInstr, 0.5), len(nsPerInstr))
	rep.layer("runner.cell_ns_per_instr_p99", "ns/instr", quantile(nsPerInstr, 0.99), len(nsPerInstr))

	a := &rec.agg
	mean := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) }
	rep.layer("seam.design.access_ns_mean", "ns", mean(a.accessNS, a.accessTimed), int(a.accessTimed))
	rep.layer("seam.design.checkpoint_us_mean", "us", mean(a.checkpointNS, a.checkpoints)/1e3, int(a.checkpoints))
	rep.layer("seam.design.restore_us_mean", "us", mean(a.restoreNS, a.restores)/1e3, int(a.restores))
	rep.layer("seam.design.checkpoint_calls", "count", ratio(float64(a.checkpoints), float64(tracedPasses)), tracedPasses)
	rep.layer("seam.workload.call_ns_mean", "ns", mean(a.callNS, a.callTimed), int(a.callTimed))

	addSimCounts(rep, passes[0].results, 1)
	return nil
}

// addSimCounts adds the simulated counts of one pass (or cycle), summed
// over its cells; n is the number of passes they repeat over.
func addSimCounts(rep *report, results []sim.Result, n int) {
	var instr, outages, wb, stalls, nvmW, nvmR uint64
	for _, r := range results {
		instr += r.Instructions
		outages += r.Outages
		wb += r.Extra.Writebacks
		stalls += r.Extra.Stalls
		nvmW += r.NVMTraffic.WriteWords
		nvmR += r.NVMTraffic.ReadWords
	}
	rep.layer("sim.instructions", "count", float64(instr), n)
	rep.layer("sim.outages", "count", float64(outages), n)
	rep.layer("design.writebacks", "count", float64(wb), n)
	rep.layer("design.stalls", "count", float64(stalls), n)
	rep.layer("mem.nvm_write_words", "count", float64(nvmW), n)
	rep.layer("mem.nvm_read_words", "count", float64(nvmR), n)
}
