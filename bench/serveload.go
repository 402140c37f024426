package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/load"
	"wlcache/internal/obs"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
)

// goldenPath is the committed 78-cell golden, relative to the root.
const goldenPath = "internal/expt/testdata/golden_results.json"

// serveWorkload is the serve-resume traffic: cycles of one cold sweep
// pair on a fresh data directory followed by restarts with warm
// resubmissions of the same pair.
type serveWorkload struct {
	restarts int // restarts per cycle
}

// defaultServeWorkload restarts 16 times per cycle. A cycle then takes
// about a second, so a 25-second run repeats the cold sweep pair and
// each of the 16 resumes about 25 times.
func defaultServeWorkload() serveWorkload { return serveWorkload{restarts: 16} }

// sweepPair is the two overlapping specs every cycle submits: the full
// golden spec and a seeded four-design subset of it.
type sweepPair struct {
	specs  [2]serve.Spec
	golden []expt.GoldenCell
	// feasible and infeasible count each spec's cells the golden pins
	// with a result and with an error; instr is the simulated
	// instructions of spec A's feasible cells, which one cold sweep pair
	// computes exactly once.
	feasible, infeasible [2]int
	instr                uint64
	results              []sim.Result // spec A's feasible cells, from the golden
}

func newSweepPair(root string, seed int64) (*sweepPair, error) {
	golden, err := expt.LoadGoldenFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	kinds := expt.AllKinds()
	var subset []string
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(kinds))[:4] {
		subset = append(subset, string(kinds[i]))
	}
	p := &sweepPair{specs: [2]serve.Spec{{}, {Designs: subset}}, golden: golden}
	inB := map[string]bool{}
	for _, d := range subset {
		inB[d] = true
	}
	for _, c := range golden {
		for s, in := range []bool{true, inB[c.Kind]} {
			switch {
			case !in:
			case c.Err != "":
				p.infeasible[s]++
			default:
				p.feasible[s]++
			}
		}
		if c.Err == "" {
			r, err := goldenCounts(c)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", goldenPath, c.ID(), err)
			}
			p.instr += r.Instructions
			p.results = append(p.results, r)
		}
	}
	if want := (serve.Spec{}).NumCells(); len(golden) != want {
		return nil, fmt.Errorf("%s pins %d cells, the default spec has %d", goldenPath, len(golden), want)
	}
	return p, nil
}

// goldenCounts reads back the counts addSimCounts sums from a golden cell.
func goldenCounts(c expt.GoldenCell) (sim.Result, error) {
	var r sim.Result
	for _, f := range []struct {
		key string
		dst *uint64
	}{
		{"Instructions", &r.Instructions}, {"Outages", &r.Outages},
		{"Extra.Writebacks", &r.Extra.Writebacks}, {"Extra.Stalls", &r.Extra.Stalls},
		{"NVMTraffic.WriteWords", &r.NVMTraffic.WriteWords}, {"NVMTraffic.ReadWords", &r.NVMTraffic.ReadWords},
	} {
		v, err := strconv.ParseUint(c.Fields[f.key], 10, 64)
		if err != nil {
			return r, fmt.Errorf("%s: %w", f.key, err)
		}
		*f.dst = v
	}
	return r, nil
}

// sweepOutcome is one sweep's stream, timed from submission.
type sweepOutcome struct {
	cells []serve.Event
	done  *serve.Event
	err   error
	end   time.Time
}

// verify checks one sweep of spec s: its stitched cells equal the golden
// (all of it for spec A, the subset for spec B), no cell was skipped,
// the golden's infeasible cells failed, and a warm sweep computed
// nothing.
func (p *sweepPair) verify(s int, o sweepOutcome, warm bool) error {
	if o.err != nil {
		return o.err
	}
	if o.done == nil || o.done.Metrics == nil {
		return fmt.Errorf("sweep ended without its done event")
	}
	m := o.done.Metrics
	switch {
	case o.done.Error != "":
		return fmt.Errorf("sweep failed: %s", o.done.Error)
	case m.Skipped != 0 || m.Failed != p.infeasible[s]:
		return fmt.Errorf("%d cells skipped and %d failed, the golden predicts 0 and %d", m.Skipped, m.Failed, p.infeasible[s])
	case m.Computed+m.FromJournal+m.FromShared+m.Deduped != p.feasible[s]:
		return fmt.Errorf("%d computed + %d journal + %d shared + %d deduped cells, the golden predicts %d",
			m.Computed, m.FromJournal, m.FromShared, m.Deduped, p.feasible[s])
	case warm && m.Computed != 0:
		return fmt.Errorf("warm sweep computed %d cells", m.Computed)
	}
	got := make([]expt.GoldenCell, len(o.cells))
	for i, ev := range o.cells {
		got[i] = expt.GoldenCell{Kind: ev.Kind, Workload: ev.Workload, Trace: ev.Trace, Err: ev.Error}
		if ev.Error == "" && ev.Result != nil {
			got[i].Fields = expt.FlattenResult(*ev.Result)
		}
	}
	return expt.CompareGoldenCells(got, p.golden, s == 1)
}

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	cli  *serve.Client
	done chan error
}

func startServer(ctx context.Context, dir string, hc *http.Client) (*liveServer, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		cli: &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: hc}, done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	if err := ls.cli.WaitReady(ctx); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop drains the service, then closes the listener and every
// connection, and waits for Serve to return. Once the service has
// drained no handler is running, so nothing is cut off; waiting for
// connections to go idle instead would stall on any the client dialed
// but never used.
func (ls *liveServer) stop() error {
	err := ls.srv.Shutdown(context.Background())
	if herr := ls.hs.Close(); err == nil {
		err = herr
	}
	if serr := <-ls.done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// submitPair submits both specs at once on two connections and drains
// both streams.
func submitPair(ctx context.Context, cli *serve.Client, p *sweepPair) [2]sweepOutcome {
	var out [2]sweepOutcome
	var wg sync.WaitGroup
	for s := range p.specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := cli.Submit(ctx, p.specs[s])
			if err != nil {
				out[s] = sweepOutcome{err: err, end: time.Now()}
				return
			}
			defer st.Close()
			cells, done, err := st.Drain()
			out[s] = sweepOutcome{cells, done, err, time.Now()}
		}()
	}
	wg.Wait()
	return out
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	traced    bool
	timed     time.Duration // cold sweep + every restart and warm sweep
	cold      time.Duration
	restarts  []time.Duration
	warm      []time.Duration // per resubmitted pair, until both streams end
	requests  []time.Duration // per restart, until both resubmitted streams end
	attempted int
	failed    int
	scrapes   [][]obs.PromSample
}

// cycle runs one cold sweep pair on a fresh data directory, then
// restarts the server on it w.restarts times and resubmits the pair.
func (w serveWorkload) cycle(ctx context.Context, dir string, hc *http.Client, p *sweepPair, rec *recorder) (cycleResult, error) {
	cr := cycleResult{traced: rec != nil}
	defer os.RemoveAll(dir)
	defer hc.CloseIdleConnections()
	note := func(tid int, name string, start, end time.Time) {
		if rec != nil {
			rec.span(tid, name, start, end)
		}
	}
	check := func(outs [2]sweepOutcome, start time.Time, warm bool) {
		computed := 0
		for s, o := range outs {
			cr.attempted++
			err := p.verify(s, o, warm)
			if err == nil {
				computed += o.done.Metrics.Computed
				if !warm && s == 1 && computed != p.feasible[0] {
					// The overlap must have been computed exactly once.
					err = fmt.Errorf("cold sweep pair computed %d cells, want each of the %d feasible ones once", computed, p.feasible[0])
				}
			}
			if err != nil {
				cr.failed++
				fmt.Fprintf(os.Stderr, "bench: sweep %c: %v\n", 'A'+s, err)
			}
			note(s+1, fmt.Sprintf("sweep %c", 'A'+s), start, o.end)
		}
	}
	// scrape keeps the server's /metrics in traced cycles, before the
	// server and its registry go away; its time is left out of the cycle.
	var scrapeT time.Duration
	scrape := func(ls *liveServer) error {
		if rec == nil {
			return nil
		}
		t := time.Now()
		samples, err := load.ScrapeProm(ctx, ls.cli)
		cr.scrapes = append(cr.scrapes, samples)
		scrapeT += time.Since(t)
		return err
	}

	ls, err := startServer(ctx, dir, hc)
	if err != nil {
		return cr, err
	}
	start := time.Now()
	outs := submitPair(ctx, ls.cli, p)
	cr.cold = time.Since(start)
	check(outs, start, false)
	for r := 0; r < w.restarts; r++ {
		if err := scrape(ls); err != nil {
			ls.stop()
			return cr, err
		}
		t0 := time.Now()
		if err := ls.stop(); err != nil {
			return cr, err
		}
		if ls, err = startServer(ctx, dir, hc); err != nil {
			return cr, err
		}
		t1 := time.Now()
		note(0, "restart", t0, t1)
		outs := submitPair(ctx, ls.cli, p)
		t2 := time.Now()
		cr.restarts = append(cr.restarts, t1.Sub(t0))
		cr.warm = append(cr.warm, t2.Sub(t1))
		cr.requests = append(cr.requests, t2.Sub(t0))
		check(outs, t1, true)
	}
	cr.timed = time.Since(start) - scrapeT
	note(0, "cycle", start, time.Now())
	if err := scrape(ls); err != nil {
		ls.stop()
		return cr, err
	}
	return cr, ls.stop()
}

// runServe measures serve-resume: set-up (golden load, spec planning and
// one server boot), then cycles until the next would overrun
// cfg.seconds. With cfg.trace, odd cycles are traced and profiled.
func runServe(cfg config, w serveWorkload) (*report, error) {
	ctx := context.Background()
	work := filepath.Join(cfg.out, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(work)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	defer hc.CloseIdleConnections()

	var p *sweepPair
	setup, err := timeSetup(func() error {
		var err error
		if p, err = newSweepPair(cfg.root, cfg.seed); err != nil {
			return err
		}
		ls, err := startServer(ctx, filepath.Join(work, "setup"), hc)
		if err != nil {
			return err
		}
		return ls.stop()
	})
	if err != nil {
		return nil, err
	}

	var rec *recorder
	var prof *profiler
	if cfg.trace {
		rec = newRecorder()
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	var cycles []cycleResult
	slowdown, err := repeat(cfg, func(ctx context.Context, traced bool) (time.Duration, error) {
		var crec *recorder
		if traced {
			crec = rec
		}
		dir := filepath.Join(work, fmt.Sprintf("cycle%d", len(cycles)))
		cr, err := w.cycle(ctx, dir, hc, p, crec)
		cycles = append(cycles, cr)
		return cr.timed, err
	})
	if err != nil {
		if prof != nil {
			prof.stop()
		}
		return nil, err
	}

	rep := &report{passes: len(cycles)}
	rep.e2e("setup_s", "s", setup/slowdown, setupRepeats)
	var cold, restart, warm, tracedT, untracedT []float64
	var colds, requests [][]time.Duration
	for _, c := range cycles {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if c.traced {
			tracedT = append(tracedT, c.timed.Seconds())
			continue
		}
		untracedT = append(untracedT, c.timed.Seconds())
		cold = append(cold, c.cold.Seconds())
		restart = append(restart, millis(c.restarts)...)
		warm = append(warm, millis(c.warm)...)
		colds = append(colds, []time.Duration{c.cold})
		requests = append(requests, c.requests)
	}
	// The cold sweep pair and each resume of a cycle repeat once per
	// cycle; each counts with its fastest repetition (see fastest), scaled
	// to the reference host (see refCalibration).
	rep.e2e("sim_mips", "Minstr/s", float64(p.instr)/1e6/fastest(colds)[0]*1e3*slowdown, len(colds))
	rep.e2e("request_ms_p50", "ms", quantile(fastest(requests), 0.5)/slowdown, w.restarts)
	rep.e2e("max_rss_mb", "MB", maxRSSMB(), 1)
	rep.layer("host.slowdown", "ratio", slowdown, len(cycles))
	if cfg.trace {
		rep.layer("serve.cold_sweep_s_p50", "s", quantile(cold, 0.5), len(cold))
		rep.layer("serve.warm_sweep_ms_p50", "ms", quantile(warm, 0.5), len(warm))
		rep.layer("serve.warm_sweep_ms_p95", "ms", quantile(warm, 0.95), len(warm))
		rep.layer("serve.restart_ms_p50", "ms", quantile(restart, 0.5), len(restart))
		addTraceOverhead(rep, tracedT, untracedT)
		profile := prof.stop()
		tracedCycles := len(tracedT)
		if err := addProfileLayers(rep, profile, p.instr*uint64(tracedCycles)); err != nil {
			return nil, err
		}
		addScrapes(rep, cycles, tracedCycles)
		addSimCounts(rep, p.results, len(cycles))
		if err := finishTrace(cfg, rep, rec, profile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// addScrapes folds the /metrics scrapes of traced cycles into the
// service's per-layer metrics. Means come from the histograms' exact
// _sum and _count; counts are per cycle.
func addScrapes(rep *report, cycles []cycleResult, tracedCycles int) {
	sums := map[string]float64{}
	for _, c := range cycles {
		for _, scrape := range c.scrapes {
			for _, s := range scrape {
				key := s.Name
				switch {
				case s.Name == "wlserve_http_request_us_sum" || s.Name == "wlserve_http_request_us_count":
					if s.Labels["route"] != "/v1/sweeps" {
						continue
					}
				case s.Name == "wlserve_cells_total":
					key += "/" + s.Labels["outcome"]
				}
				sums[key] += s.Value
			}
		}
	}
	mean := func(h string) (float64, int) {
		n := sums[h+"_count"]
		return ratio(sums[h+"_sum"], n), int(n)
	}
	v, n := mean("wlserve_journal_fsync_us")
	rep.layer("serve.journal_fsync_us_mean", "us", v, n)
	v, n = mean("wlserve_http_request_us")
	rep.layer("serve.http_request_us_mean", "us", v, n)
	v, n = mean("wlserve_cell_wait_us")
	rep.layer("serve.cell_wait_us_mean", "us", v, n)
	computed := sums["wlserve_cells_total/computed"]
	served := sums["wlserve_cells_total/from_journal"] + sums["wlserve_cells_total/from_shared"] + sums["wlserve_cells_total/deduped"]
	rep.layer("serve.dedup_ratio", "fraction", ratio(served, served+computed), int(served+computed))
	perCycle := float64(max(tracedCycles, 1))
	rep.layer("serve.cells_computed", "count", computed/perCycle, tracedCycles)
	rep.layer("serve.cells_served", "count", served/perCycle, tracedCycles)
}
