// Command bench is the simulator's end-to-end and per-layer benchmark.
// It runs one workload for a fixed time, checks every simulated outcome,
// and prints each metric by name, unit and sample count. The last line
// of standard output is a one-line JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Without -trace the summary carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of the traced passes. Run it
// through run.sh from the repository root, or directly:
//
//	go run . -root .. -workload fig-fast -seed 1 -seconds 25
//
// Exit status: 0 every outcome checked out, 1 usage or set-up error,
// 2 some outcome was wrong. README.md describes the workloads, the
// metrics and which layer moves which metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"wlcache/internal/hostinfo"
	"wlcache/internal/sim"
)

// workers is the runner pool size and the number of client connections:
// the reference host has two CPUs, and load from one process never asks
// for more, so the workload is the same on any host.
const workers = 2

// setupRepeats is how often set-up runs; setup_s is the median.
const setupRepeats = 15

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: holds internal/ and bench/
	out      string // trace files and the service's data directories
}

// metric is one reported number; N is the count of samples behind it
// (passes, cells, sweeps or profile samples).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// report is the outcome of one workload run.
type report struct {
	passes    int
	attempted int
	failed    int
	endToEnd  []metric
	perLayer  []metric
}

func (r *report) e2e(name, unit string, v float64, n int) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v, n})
}

func (r *report) layer(name, unit string, v float64, n int) {
	r.perLayer = append(r.perLayer, metric{name, unit, v, n})
}

// all returns a new slice of every metric, end-to-end ones first.
func (r *report) all() []metric { return slices.Concat(r.endToEnd, r.perLayer) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: fig-exact, fig-fast, outage-fast or serve-resume")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: power traces, cell order and the overlapping service spec")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured time (s)")
	fs.IntVar(&traceFlag, "trace", 0, "1: alternate untraced and traced passes and report per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for trace files and service data")
	jsonOut := fs.String("json", "", "also write a wlperf/v1 report to this file")
	update := fs.Bool("update", false, "regenerate bench/testdata/expected_seed1.json and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *update {
		if err := writeExpected(cfg.root); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 1
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 1
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	for _, m := range rep.all() {
		fmt.Fprintf(stdout, "%-34s %16.6f %-10s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, cfg, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := writeSummary(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 2
	}
	return 0
}

// timeSetup runs set-up setupRepeats times, each from a freshly
// collected heap, and returns the median time in seconds.
func timeSetup(setup func() error) (float64, error) {
	ds := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// repeat runs step until the next step would overrun cfg.seconds, at
// least once, or twice with cfg.trace. With cfg.trace every second step
// is traced and runs under tracedLabel, which goroutines it starts
// inherit. step returns how long it took. Before each step repeat times
// the calibration loop, and it returns the host's slowdown over the run.
func repeat(cfg config, step func(ctx context.Context, traced bool) (time.Duration, error)) (slowdown float64, err error) {
	minSteps := 1
	if cfg.trace {
		minSteps = 2
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var cal []time.Duration
	for i := 0; ; i++ {
		cal = append(cal, calibrate())
		var d time.Duration
		if cfg.trace && i%2 == 1 {
			pprof.Do(context.Background(), tracedLabel, func(ctx context.Context) { d, err = step(ctx, true) })
		} else {
			d, err = step(context.Background(), false)
		}
		if err != nil {
			return 0, err
		}
		if i+1 >= minSteps && time.Since(start)+d > budget {
			return slices.Min(cal).Seconds() / refCalibration.Seconds(), nil
		}
	}
}

// refCalibration is about calibrate's fastest time on the reference
// host, a 2-vCPU VM on a Xeon (CPU model 207). End-to-end timings are
// scaled to that host. Other tenants of a shared host slow it by up to
// 25% for minutes at a time, which even a unit's fastest repetition
// (see fastest) cannot escape. calibrate slows with them: over ten runs
// of each simulator workload, unscaled throughput correlated with its
// fastest time at -0.79 to -0.98. A run's slowdown is its fastest
// calibration over refCalibration; a time is divided by it, a rate
// multiplied.
const refCalibration = 22 * time.Millisecond

var calibrationSink uint64

// calibrate times a fixed loop of integer arithmetic and updates to a
// table that fits in L2 cache. It uses nothing from the repository, so
// no change to the simulator can move it; only the host's speed does.
func calibrate() time.Duration {
	table := make([]uint32, 1<<16)
	start := time.Now()
	x := uint64(88172645463325252)
	for range 10_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&0xffff] += uint32(x)
	}
	d := time.Since(start)
	calibrationSink += x + uint64(table[x&0xffff])
	return d
}

// runWorkload dispatches on the workload name.
func runWorkload(cfg config) (*report, error) {
	if cfg.workload == "serve-resume" {
		return runServe(cfg, defaultServeWorkload())
	}
	w, ok := simWorkloads()[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want fig-exact, fig-fast, outage-fast or serve-resume)", cfg.workload)
	}
	return runSim(cfg, w)
}

// writeSummary prints the one-line JSON result that ends the output.
func writeSummary(w io.Writer, cfg config, rep *report) error {
	ms := rep.endToEnd
	if cfg.trace {
		ms = rep.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, make(map[string]value, len(ms))}
	for _, m := range ms {
		out.Metrics[m.Name] = value{finite(m.Value), m.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// perfSchema names the -json report format.
const perfSchema = "wlperf/v1"

// writeReport writes the wlperf/v1 document: host identity, engine,
// run shape and every metric with its sample count.
func writeReport(path string, cfg config, rep *report) error {
	doc := struct {
		Schema    string        `json:"schema"`
		Host      hostinfo.Info `json:"host"`
		Engine    string        `json:"engine"`
		Workload  string        `json:"workload"`
		Seed      int64         `json:"seed"`
		Seconds   float64       `json:"seconds"`
		Passes    int           `json:"passes"`
		Workers   int           `json:"workers"`
		Traced    bool          `json:"traced"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   []metric      `json:"metrics"`
	}{perfSchema, hostinfo.Collect(), sim.EngineVersion, cfg.workload, cfg.seed, cfg.seconds,
		rep.passes, workers, cfg.trace, rep.attempted, rep.failed, rep.all()}
	for i := range doc.Metrics {
		doc.Metrics[i].Value = finite(doc.Metrics[i].Value)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// fastest returns, in milliseconds, the fastest repetition of each unit
// of work: reps[i][j] is repetition i of unit j. Other tenants of a
// shared host slow execution by up to 75% in bursts of under a second,
// and a burst only ever adds time, so a unit's fastest repetition over a
// run measures the program rather than the burst.
func fastest(reps [][]time.Duration) []float64 {
	if len(reps) == 0 {
		return nil
	}
	best := slices.Clone(reps[0])
	for _, r := range reps[1:] {
		for j, d := range r {
			best[j] = min(best[j], d)
		}
	}
	return millis(best)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
