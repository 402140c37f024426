// Command wlobs records instrumented simulation runs and explains each
// with its cycle ledger.
//
// `record` runs one workload on one or more designs with the
// observability layer enabled (internal/obs). For every design it
// charges each simulated cycle to one category (the cycle ledger,
// DESIGN.md §10), folds the ledger into the design's manifest line,
// prints a per-run summary, and writes a Chrome trace_event JSON file
// (loadable in chrome://tracing or Perfetto). It then prints the
// cross-design ledger table.
// `summary` re-renders a saved manifest.
//
// A manifest is judged by the run-history gate: `wlhist record` it into
// a store holding earlier manifests, then `wlhist gate`. Every metric
// in it, the ledger included, is an exact simulated outcome.
//
// Usage:
//
//	wlobs record -designs nvcache-wb,vcache-wt,wl -workload sha -trace tr1 -out obs-out
//	wlobs record -fault tornckpt -crashes 3 -workload qsort
//	wlobs summary obs-out/manifest.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"wlcache/internal/expt"
	"wlcache/internal/fault"
	"wlcache/internal/hostinfo"
	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
	"wlcache/internal/workload"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlobs:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the CLI; factored out of main for testing. The int is
// the process exit code for a completed command.
func run(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("usage: wlobs record|summary [flags]; see `wlobs <cmd> -h`")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, hostinfo.Version("wlobs"))
		return 0, nil
	case "record":
		return runRecord(args[1:], stdout)
	case "summary":
		return runSummary(args[1:], stdout)
	}
	return 0, fmt.Errorf("unknown subcommand %q (want record or summary)", args[0])
}

// crashSpacing is the instruction distance between forced crashes when
// `record -fault` schedules them (golden-run-free, so deterministic
// without knowing the workload's length).
const crashSpacing = 5_000

func runRecord(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlobs record", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		designs   = fs.String("designs", "wl", "comma-separated design kinds to record")
		wl        = fs.String("workload", "sha", "benchmark name")
		trace     = fs.String("trace", "tr1", "power source: none, tr1, tr2, tr3, solar, thermal")
		scale     = fs.Int("scale", 1, "input-size multiplier")
		events    = fs.Int("events", obs.DefaultEventCap, "event ring capacity (~48 B/event)")
		out       = fs.String("out", "wlobs-out", "output directory for manifest.jsonl and the trace JSON files")
		check     = fs.Bool("check", true, "verify crash-consistency invariants")
		faultMode = fs.String("fault", "", "also inject faults: crash, tornwb, tornckpt, ackloss")
		crashes   = fs.Int("crashes", 3, "forced crashes to schedule with -fault")
		seed      = fs.Uint64("seed", 1, "fault-injection seed")
		needFull  = fs.Bool("require-full-coverage", false, "exit 1 unless every ledger attributes 100% of cycles")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	w, ok := workload.ByName(*wl)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", *wl)
	}
	if !power.Source(*trace).Valid() {
		return 0, fmt.Errorf("unknown power trace %q", *trace)
	}
	if *scale < 1 {
		return 0, fmt.Errorf("-scale %d: want at least 1", *scale)
	}
	var mode fault.Mode
	if *faultMode != "" {
		mode = fault.Mode(*faultMode)
		if !mode.Valid() {
			return 0, fmt.Errorf("unknown fault mode %q", *faultMode)
		}
		// Injected faults corrupt durable state by design; the invariant
		// checker would (correctly) abort the run. Recording wants the
		// timeline, so checks default off unless explicitly requested.
		checkSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "check" {
				checkSet = true
			}
		})
		if !checkSet {
			*check = false
		}
	}
	var kinds []expt.Kind
	for _, d := range strings.Split(*designs, ",") {
		kind := expt.Kind(strings.TrimSpace(d))
		if !slices.Contains(expt.AllKinds(), kind) {
			// Rejected before the output directory is made.
			return 0, fmt.Errorf("unknown design kind %q", kind)
		}
		kinds = append(kinds, kind)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 0, err
	}
	mf, err := os.Create(filepath.Join(*out, "manifest.jsonl"))
	if err != nil {
		return 0, err
	}
	defer mf.Close()

	var ledgers []obs.Ledger
	for _, kind := range kinds {
		var inj *fault.Injector
		if mode != "" {
			inj = fault.NewInjector(mode, *seed)
			for i := 1; i <= *crashes; i++ {
				inj.CrashAtInstrs(uint64(i) * crashSpacing)
			}
		}
		rec, res, l, err := runCell(kind, w.Name, *trace, *scale, *events, *check, inj)
		if err != nil {
			return 0, err
		}
		foldResult(rec.Registry(), res)
		foldLedger(rec.Registry(), l)

		m := rec.Manifest()
		if err := obs.AppendManifest(mf, m); err != nil {
			return 0, err
		}
		stem := fmt.Sprintf("%s-%s-%s", kind, w.Name, *trace)
		tname := filepath.Join(*out, "trace-"+stem+".json")
		tf, err := os.Create(tname)
		if err != nil {
			return 0, err
		}
		if err := rec.Trace().WriteChrome(tf, rec.Meta); err != nil {
			tf.Close()
			return 0, err
		}
		if err := tf.Close(); err != nil {
			return 0, err
		}
		fmt.Fprint(stdout, obs.Summarize(m))
		fmt.Fprintf(stdout, "wrote %s\n\n", tname)
		ledgers = append(ledgers, l)
	}
	fmt.Fprint(stdout, attrTable(ledgers))
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(*out, "manifest.jsonl"))
	if *needFull {
		for i := range ledgers {
			if ledgers[i].Coverage() < 1 {
				fmt.Fprintf(stdout, "record: %s coverage %.3f%% < 100%% (ring dropped %d events)\n",
					ledgers[i].Meta.Key(), 100*ledgers[i].Coverage(), ledgers[i].Dropped)
				return 1, nil
			}
		}
	}
	return 0, nil
}

// foldResult folds the run-level sim.Result into the registry as
// gauges, so the manifest carries the end-to-end outcomes (execution
// time, energy, traffic, checksum) alongside the event-derived
// distributions.
func foldResult(reg *obs.Registry, res sim.Result) {
	reg.Gauge("result.exec_ps", obs.DirLower).Set(float64(res.ExecTime))
	reg.Gauge("result.on_ps", obs.DirLower).Set(float64(res.OnTime))
	reg.Gauge("result.ckpt_ps", obs.DirLower).Set(float64(res.CheckpointTime))
	reg.Gauge("result.off_ps", obs.DirLower).Set(float64(res.OffTime))
	reg.Gauge("result.restore_ps", obs.DirLower).Set(float64(res.RestoreTime))
	reg.Gauge("result.instructions", obs.DirNone).Set(float64(res.Instructions))
	reg.Gauge("result.outages", obs.DirLower).Set(float64(res.Outages))
	reg.Gauge("result.energy_pj", obs.DirLower).Set(res.Energy.Total() * 1e12)
	reg.Gauge("result.nvm_write_bytes", obs.DirLower).Set(float64(res.NVMTraffic.WriteBytes()))
	reg.Gauge("result.reserve_wasted_pj", obs.DirLower).Set(res.ReserveWasted * 1e12)
	reg.Gauge("result.checksum", obs.DirNone).Set(float64(res.Checksum))
}

// foldLedger folds the cycle ledger into the registry: one counter per
// category plus the unattributed prefix, and the attributed fraction.
// Its total is result.exec_ps. Compute time is the workload itself,
// not overhead, so it has no good direction; every other category is
// lower-is-better.
func foldLedger(reg *obs.Registry, l obs.Ledger) {
	for _, c := range obs.Categories() {
		dir := obs.DirLower
		if c == obs.CatCompute {
			dir = obs.DirNone
		}
		reg.Counter("attr."+c.String()+"_ps", dir).Add(uint64(l.CatPS[c]))
	}
	reg.Counter("attr.unknown_ps", obs.DirLower).Add(uint64(l.UnknownPS))
	reg.Gauge("attr.coverage", obs.DirHigher).Set(l.Coverage())
}

func runSummary(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlobs summary", flag.ContinueOnError)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 1 {
		return 0, fmt.Errorf("usage: wlobs summary MANIFEST.jsonl")
	}
	ms, err := readManifestFile(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	for _, m := range ms {
		fmt.Fprint(stdout, obs.Summarize(m))
		fmt.Fprintln(stdout)
	}
	return 0, nil
}

// warnDropped surfaces ring overwrites on stderr: a truncated trace
// silently degrades the ledger's coverage, so the operator should
// know to re-run with a larger -events.
func warnDropped(rec *obs.Recorder, kind string) {
	if d := rec.Trace().Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "wlobs: warning: design %s dropped %d of %d events (ring full); rerun with a larger -events for full coverage\n",
			kind, d, rec.Trace().Pushed())
	}
}

// runCell executes one design × workload × trace cell through
// expt.Run with recording on and inj (nil: no faults) as the fault
// plan, and returns the recorder, the result and the run's cycle
// ledger.
func runCell(kind expt.Kind, wl, trace string, scale, events int, check bool, inj *fault.Injector) (*obs.Recorder, sim.Result, obs.Ledger, error) {
	rec := obs.NewRecorder(obs.RunMeta{Design: string(kind), Workload: wl, Trace: trace}, events)
	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = check
	cfg.Obs = rec
	if inj != nil {
		cfg.FaultPlan = inj
	}
	res, err := expt.Run(kind, expt.Options{}, wl, scale, power.Source(trace), cfg)
	if err != nil {
		return nil, sim.Result{}, obs.Ledger{}, fmt.Errorf("design %s: %w", kind, err)
	}
	warnDropped(rec, string(kind))
	l := rec.Attribute(res.ExecTime, cfg.CyclePS)
	if l.SumPS() != l.TotalPS {
		// The ledger's own invariant; if it ever trips the profiler
		// is lying and must not pretend otherwise.
		return nil, sim.Result{}, obs.Ledger{}, fmt.Errorf("design %s: ledger sum %d ps != total %d ps", kind, l.SumPS(), l.TotalPS)
	}
	return rec, res, l, nil
}

// attrTable renders the cross-design cycle ledger: one column per
// design, one row per category, cycles with percent-of-total.
func attrTable(ledgers []obs.Ledger) string {
	if len(ledgers) == 0 {
		return ""
	}
	t := &stats.TextTable{
		Title: fmt.Sprintf("cycle attribution: %s / %s (cycles, %% of total)",
			ledgers[0].Meta.Workload, ledgers[0].Meta.Trace),
		Label: "category",
	}
	for i := range ledgers {
		t.Columns = append(t.Columns, ledgers[i].Meta.Design)
	}
	row := func(label string, cell func(l *obs.Ledger) string) {
		cells := make([]string, len(ledgers))
		for i := range ledgers {
			cells[i] = cell(&ledgers[i])
		}
		t.Add(label, cells...)
	}
	share := func(l *obs.Ledger, ps int64) string {
		pct := 0.0
		if l.TotalPS > 0 {
			pct = 100 * float64(ps) / float64(l.TotalPS)
		}
		return fmt.Sprintf("%d (%5.1f%%)", l.Cycles(ps), pct)
	}
	for _, c := range obs.Categories() {
		row(c.String(), func(l *obs.Ledger) string { return share(l, l.CatPS[c]) })
	}
	row("unknown", func(l *obs.Ledger) string { return share(l, l.UnknownPS) })
	row("total cycles", func(l *obs.Ledger) string { return strconv.FormatInt(l.Cycles(l.TotalPS), 10) })
	row("hidden port-wait", func(l *obs.Ledger) string { return strconv.FormatInt(l.Cycles(l.HiddenPortWaitPS), 10) })
	row("coverage", func(l *obs.Ledger) string { return fmt.Sprintf("%.1f%%", 100*l.Coverage()) })
	return t.String() + "hidden port-wait: async write-backs overlapped by execution, not in the total\n"
}

func readManifestFile(path string) ([]obs.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ms, err := obs.ReadManifests(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("%s: no manifests", path)
	}
	return ms, nil
}
