// Command wlobs records instrumented simulation runs and explains them
// causally.
//
// `record` runs one workload on one or more designs with the
// observability layer enabled (internal/obs), prints a per-run
// summary, and writes a JSONL manifest plus one Chrome trace_event
// JSON file per design (loadable in chrome://tracing or Perfetto).
// `summary` re-renders a saved manifest.
// `spans` reconstructs the causal span graph of a run (store stall →
// write-back → port wait → DirtyQueue release; checkpoint/off/restore
// under their outage). `attribute` charges every simulated cycle to
// one category and compares the ledgers across designs (wlattr/v1
// JSON with -json). `flame` renders the ledger as folded stacks for
// standard flamegraph tooling.
//
// A manifest is judged by the run-history gate: `wlhist record` it into
// a store holding earlier manifests, then `wlhist gate`. Every metric
// in it is an exact simulated outcome.
//
// Usage:
//
//	wlobs record -designs wl,wl-dyn -workload sha -trace tr1 -out obs-out
//	wlobs record -fault tornckpt -crashes 3 -workload qsort
//	wlobs summary obs-out/manifest.jsonl
//	wlobs spans -design wl -workload sha -trace tr1 -kind stall
//	wlobs attribute -designs nvcache-wb,vcache-wt,wl -workload sha -trace tr1
//	wlobs flame -design wl -workload sha -trace tr1 -out wl.folded
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
	"wlcache/internal/isa"
	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/sim"
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
		return 0, fmt.Errorf("usage: wlobs record|summary|spans|attribute|flame [flags]; see `wlobs <cmd> -h`")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, hostinfo.Version("wlobs"))
		return 0, nil
	case "record":
		return runRecord(args[1:], stdout)
	case "summary":
		return runSummary(args[1:], stdout)
	case "spans":
		return runSpans(args[1:], stdout)
	case "attribute":
		return runAttribute(args[1:], stdout)
	case "flame":
		return runFlame(args[1:], stdout)
	}
	return 0, fmt.Errorf("unknown subcommand %q (want record, summary, spans, attribute or flame)", args[0])
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
		events    = fs.Int("events", 0, "event ring capacity; ~48 B/event, 0 = default 65536 (~3 MB)")
		out       = fs.String("out", "wlobs-out", "output directory for manifest.jsonl and trace JSON")
		check     = fs.Bool("check", true, "verify crash-consistency invariants")
		faultMode = fs.String("fault", "", "also inject faults: crash, tornwb, tornckpt, ackloss")
		crashes   = fs.Int("crashes", 3, "forced crashes to schedule with -fault")
		seed      = fs.Uint64("seed", 1, "fault-injection seed")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	w, ok := workload.ByName(*wl)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", *wl)
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
		if err := checkKind(kind); err != nil {
			return 0, err
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

	for _, kind := range kinds {
		rec := obs.NewRecorder(obs.RunMeta{Design: string(kind), Workload: w.Name, Trace: *trace}, *events)

		cfg := sim.DefaultConfig()
		cfg.CheckInvariants = *check
		cfg.Obs = rec
		cfg.Trace = power.Get(power.Source(*trace))
		design, nvm := expt.NewDesign(kind, expt.Options{})
		if mode != "" {
			inj := fault.NewInjector(mode, *seed)
			inj.Obs = rec
			for i := 1; i <= *crashes; i++ {
				inj.CrashAtInstrs(uint64(i) * crashSpacing)
			}
			cfg.FaultPlan = inj
			inj.Arm(nvm, design)
		}
		s, err := sim.New(cfg, design, nvm)
		if err != nil {
			return 0, fmt.Errorf("design %s: %w", kind, err)
		}
		res, err := s.Run(w.Name, func(m isa.Machine) uint32 { return w.Run(m, *scale) })
		if err != nil {
			return 0, fmt.Errorf("design %s: %w", kind, err)
		}
		foldResult(rec.Registry(), res)
		warnDropped(rec, string(kind))

		m := rec.Manifest()
		if err := obs.AppendManifest(mf, m); err != nil {
			return 0, err
		}
		tname := filepath.Join(*out, fmt.Sprintf("trace-%s-%s-%s.json", kind, w.Name, *trace))
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
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(*out, "manifest.jsonl"))
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
// silently degrades spans/attribution coverage, so the operator should
// know to re-run with a larger -events.
func warnDropped(rec *obs.Recorder, kind string) {
	if d := rec.Trace().Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "wlobs: warning: design %s dropped %d of %d events (ring full); rerun with a larger -events for full coverage\n",
			kind, d, rec.Trace().Pushed())
	}
}

// checkKind rejects a design kind expt.NewDesign would panic on.
func checkKind(kind expt.Kind) error {
	if !slices.Contains(expt.AllKinds(), kind) {
		return fmt.Errorf("unknown design kind %q", kind)
	}
	return nil
}

// attrEventCap is the default ring size for the causal subcommands:
// big enough that smoke-scale runs drop nothing, since dropped events
// directly reduce attribution coverage (~48 B/event → 1 Mi ≈ 48 MB).
const attrEventCap = 1 << 20

// runInstrumented executes one design × workload × trace cell with
// recording on and returns the recorder, the result and the core cycle
// time (for ps → cycle conversion).
func runInstrumented(kind expt.Kind, wl string, trace string, scale, events int) (*obs.Recorder, sim.Result, int64, error) {
	w, ok := workload.ByName(wl)
	if !ok {
		return nil, sim.Result{}, 0, fmt.Errorf("unknown workload %q", wl)
	}
	if err := checkKind(kind); err != nil {
		return nil, sim.Result{}, 0, err
	}
	rec := obs.NewRecorder(obs.RunMeta{Design: string(kind), Workload: w.Name, Trace: trace}, events)
	cfg := sim.DefaultConfig()
	cfg.Obs = rec
	cfg.Trace = power.Get(power.Source(trace))
	design, nvm := expt.NewDesign(kind, expt.Options{})
	s, err := sim.New(cfg, design, nvm)
	if err != nil {
		return nil, sim.Result{}, 0, fmt.Errorf("design %s: %w", kind, err)
	}
	res, err := s.Run(w.Name, func(m isa.Machine) uint32 { return w.Run(m, scale) })
	if err != nil {
		return nil, sim.Result{}, 0, fmt.Errorf("design %s: %w", kind, err)
	}
	return rec, res, cfg.CyclePS, nil
}

func runSpans(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlobs spans", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		design   = fs.String("design", "wl", "design kind to reconstruct")
		wl       = fs.String("workload", "sha", "benchmark name")
		trace    = fs.String("trace", "tr1", "power source: none, tr1, tr2, tr3, solar, thermal")
		scale    = fs.Int("scale", 1, "input-size multiplier")
		events   = fs.Int("events", attrEventCap, "event ring capacity (~48 B/event)")
		kindFlag = fs.String("kind", "", "only show spans of this kind (stall, writeback, port-wait, checkpoint, off, restore, outage)")
		addrFlag = fs.String("addr", "", "only show spans touching this address (hex ok)")
		limit    = fs.Int("limit", 50, "max spans to print (0 = all)")
		asJSON   = fs.Bool("json", false, "emit spans as JSONL instead of the report")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	rec, res, _, err := runInstrumented(expt.Kind(*design), *wl, *trace, *scale, *events)
	if err != nil {
		return 0, err
	}
	warnDropped(rec, *design)
	set := obs.BuildSpans(rec.Trace(), rec.Meta, res.ExecTime)

	var wantKind obs.SpanKind
	if *kindFlag != "" {
		k, ok := obs.SpanKindByName(*kindFlag)
		if !ok {
			return 0, fmt.Errorf("unknown span kind %q", *kindFlag)
		}
		wantKind = k
	}
	var wantAddr uint32
	haveAddr := false
	if *addrFlag != "" {
		a, err := strconv.ParseUint(*addrFlag, 0, 32)
		if err != nil {
			return 0, fmt.Errorf("bad -addr %q: %w", *addrFlag, err)
		}
		wantAddr, haveAddr = uint32(a), true
	}
	match := func(sp obs.Span) bool {
		if wantKind != 0 && sp.Kind != wantKind {
			return false
		}
		if haveAddr && sp.Addr != wantAddr {
			return false
		}
		return true
	}

	if *asJSON {
		filtered := set
		filtered.Spans = nil
		for _, sp := range set.Spans {
			if match(sp) {
				filtered.Spans = append(filtered.Spans, sp)
			}
		}
		return 0, filtered.WriteJSONL(stdout)
	}
	fmt.Fprint(stdout, set.Summary())
	shown := 0
	for _, sp := range set.Spans {
		if !match(sp) {
			continue
		}
		if *limit > 0 && shown >= *limit {
			fmt.Fprintf(stdout, "   ... (use -limit 0 for all)\n")
			break
		}
		fmt.Fprintf(stdout, "  %s\n", set.Format(sp))
		shown++
	}
	return 0, nil
}

func runAttribute(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlobs attribute", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		designs  = fs.String("designs", "nvcache-wb,vcache-wt,wl", "comma-separated design kinds to attribute")
		wl       = fs.String("workload", "sha", "benchmark name")
		trace    = fs.String("trace", "tr1", "power source: none, tr1, tr2, tr3, solar, thermal")
		scale    = fs.Int("scale", 1, "input-size multiplier")
		events   = fs.Int("events", attrEventCap, "event ring capacity (~48 B/event)")
		top      = fs.Int("top", 5, "hotspot sites to print per design (0 = none)")
		jsonOut  = fs.String("json", "", "also append wlattr/v1 JSONL records to this file")
		needFull = fs.Bool("require-full-coverage", false, "exit 1 unless every ledger attributes 100% of cycles")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	var ledgers []obs.Ledger
	for _, d := range strings.Split(*designs, ",") {
		kind := expt.Kind(strings.TrimSpace(d))
		rec, res, cyclePS, err := runInstrumented(kind, *wl, *trace, *scale, *events)
		if err != nil {
			return 0, err
		}
		warnDropped(rec, string(kind))
		l := rec.Attribute(res.ExecTime, cyclePS)
		if l.SumPS() != l.TotalPS {
			// The ledger's own invariant; if it ever trips the profiler
			// is lying and must not pretend otherwise.
			return 0, fmt.Errorf("design %s: ledger sum %d ps != total %d ps", kind, l.SumPS(), l.TotalPS)
		}
		ledgers = append(ledgers, l)
	}
	fmt.Fprint(stdout, attrTable(ledgers, *top))

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return 0, err
		}
		for i := range ledgers {
			if err := obs.WriteAttr(f, &ledgers[i], *top); err != nil {
				f.Close()
				return 0, err
			}
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	}
	if *needFull {
		for i := range ledgers {
			if ledgers[i].Coverage() < 1 {
				fmt.Fprintf(stdout, "attribute: %s coverage %.3f%% < 100%% (ring dropped %d events)\n",
					ledgers[i].Meta.Key(), 100*ledgers[i].Coverage(), ledgers[i].Dropped)
				return 1, nil
			}
		}
	}
	return 0, nil
}

// attrTable renders the cross-design cycle ledger: one column per
// design, one row per category, cycles with percent-of-total.
func attrTable(ledgers []obs.Ledger, top int) string {
	var b strings.Builder
	if len(ledgers) == 0 {
		return ""
	}
	cell := func(l *obs.Ledger, ps int64) string {
		pct := 0.0
		if l.TotalPS > 0 {
			pct = 100 * float64(ps) / float64(l.TotalPS)
		}
		return fmt.Sprintf("%d (%5.1f%%)", l.Cycles(ps), pct)
	}
	const catW = 18
	colW := make([]int, len(ledgers))
	for i := range ledgers {
		colW[i] = len(ledgers[i].Meta.Design)
		for _, c := range obs.Categories() {
			if n := len(cell(&ledgers[i], ledgers[i].CatPS[c])); n > colW[i] {
				colW[i] = n
			}
		}
		if n := len(cell(&ledgers[i], ledgers[i].UnknownPS)); n > colW[i] {
			colW[i] = n
		}
	}
	fmt.Fprintf(&b, "cycle attribution: %s / %s (cycles, %% of total)\n",
		ledgers[0].Meta.Workload, ledgers[0].Meta.Trace)
	fmt.Fprintf(&b, "%-*s", catW, "category")
	for i := range ledgers {
		fmt.Fprintf(&b, "  %*s", colW[i], ledgers[i].Meta.Design)
	}
	b.WriteByte('\n')
	for _, c := range obs.Categories() {
		fmt.Fprintf(&b, "%-*s", catW, c)
		for i := range ledgers {
			fmt.Fprintf(&b, "  %*s", colW[i], cell(&ledgers[i], ledgers[i].CatPS[c]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s", catW, "unknown")
	for i := range ledgers {
		fmt.Fprintf(&b, "  %*s", colW[i], cell(&ledgers[i], ledgers[i].UnknownPS))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-*s", catW, "total cycles")
	for i := range ledgers {
		fmt.Fprintf(&b, "  %*d", colW[i], ledgers[i].Cycles(ledgers[i].TotalPS))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-*s", catW, "hidden port-wait")
	for i := range ledgers {
		fmt.Fprintf(&b, "  %*d", colW[i], ledgers[i].Cycles(ledgers[i].HiddenPortWaitPS))
	}
	b.WriteString("  (async WBs, overlapped by execution)\n")
	fmt.Fprintf(&b, "%-*s", catW, "coverage")
	for i := range ledgers {
		fmt.Fprintf(&b, "  %*s", colW[i], fmt.Sprintf("%.1f%%", 100*ledgers[i].Coverage()))
	}
	b.WriteByte('\n')
	if top > 0 {
		for i := range ledgers {
			l := &ledgers[i]
			if len(l.Hotspots) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s hotspots (stall + sync port-wait cycles by site):\n", l.Meta.Design)
			for j, h := range l.Hotspots {
				if j >= top {
					break
				}
				fmt.Fprintf(&b, "  %-40s stall %-12d port-wait %-12d (%d events)\n",
					h.Site, l.Cycles(h.StallPS), l.Cycles(h.PortWaitPS), h.Events)
			}
		}
	}
	return b.String()
}

func runFlame(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlobs flame", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		design = fs.String("design", "wl", "design kind to profile")
		wl     = fs.String("workload", "sha", "benchmark name")
		trace  = fs.String("trace", "tr1", "power source: none, tr1, tr2, tr3, solar, thermal")
		scale  = fs.Int("scale", 1, "input-size multiplier")
		events = fs.Int("events", attrEventCap, "event ring capacity (~48 B/event)")
		out    = fs.String("out", "", "write folded stacks to this file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	rec, res, cyclePS, err := runInstrumented(expt.Kind(*design), *wl, *trace, *scale, *events)
	if err != nil {
		return 0, err
	}
	warnDropped(rec, *design)
	l := rec.Attribute(res.ExecTime, cyclePS)
	folded := l.Folded()
	if *out == "" {
		fmt.Fprint(stdout, folded)
		return 0, nil
	}
	if err := os.WriteFile(*out, []byte(folded), 0o644); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "wrote %s (%d stacks; render with e.g. flamegraph.pl or speedscope)\n",
		*out, strings.Count(folded, "\n"))
	return 0, nil
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
