package expt

import (
	"context"
	"math"
	"runtime"
	"strconv"

	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
	"wlcache/internal/workload"
)

// Context configures an experiment run.
type Context struct {
	// Scale multiplies workload input sizes (default 1 = paper runs).
	Scale int
	// Workloads restricts the benchmark set (nil = all 23).
	Workloads []string
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// CheckInvariants enables the expensive correctness checking.
	CheckInvariants bool
	// Tier selects the engine fidelity for every cell of the sweep
	// (sim.TierExact default). Fast-tier cells fingerprint differently
	// from exact cells, so the two can never alias in journals, the
	// serve store, or recorded histories.
	Tier sim.Tier
}

func (c Context) normalize() Context {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.Names()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

func (c Context) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = c.CheckInvariants
	cfg.Tier = c.Tier
	return cfg
}

// Experiment reproduces one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx Context) (string, error)
}

var experiments []Experiment

func registerExperiment(e Experiment) { experiments = append(experiments, e) }

// Experiments returns every registered experiment in registration
// order (the paper's order).
func Experiments() []Experiment { return experiments }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// cell is one (design, workload, trace, options) simulation request.
type cell struct {
	kind  Kind
	opts  Options
	wl    string
	src   power.Source
	simFn func(*sim.Config) // optional config override
	// optional cells may fail (e.g. a design whose JIT reserve cannot
	// be charged on a tiny capacitor); their Result is left zero.
	optional bool
}

// runCells executes all cells through the runner's worker pool
// (internal/runner) and returns results keyed by index. Failed
// optional cells keep a zero Result; the first failing required cell
// — by submission index, never by scheduling race — becomes the
// error, with every completed result still returned alongside it.
func runCells(ctx Context, cells []cell) ([]sim.Result, error) {
	rep, err := runCellsReport(ctx, cells)
	return rep.Results, err
}

// runCellsReport is runCells with the full per-cell error vector
// exposed; the golden sweep pins every cell's error.
func runCellsReport(ctx Context, cells []cell) (runner.Report, error) {
	ctx = ctx.normalize()
	rcells := make([]runner.Cell, len(cells))
	for i, c := range cells {
		cfg := ctx.simConfig()
		if c.simFn != nil {
			c.simFn(&cfg)
		}
		rc := RunnerCell(c.kind, c.opts, c.wl, ctx.Scale, c.src, cfg)
		rc.Optional = c.optional
		rcells[i] = rc
	}
	return runner.RunCells(context.Background(), runner.Config{
		Workers: ctx.Parallelism,
		Engine:  sim.EngineVersion,
	}, rcells)
}

// RunnerCell builds the crash-resumable runner cell for one
// (design, options, workload, scale, trace, sim config) request — the
// same ID / content fingerprint / Run closure expt's own sweeps
// submit. External drivers (the wlserve sweep service) build their
// cells through this, so their content addresses — and therefore
// journals, shared caches and the committed golden — are interchangeable
// with in-process sweeps.
func RunnerCell(kind Kind, opts Options, wl string, scale int, src power.Source, cfg sim.Config) runner.Cell {
	if scale <= 0 {
		scale = 1
	}
	return runner.Cell{
		ID:          string(kind) + "/" + wl + "/" + string(src),
		Fingerprint: cellFingerprint(kind, opts, wl, scale, src, cfg),
		Run: func(context.Context) (sim.Result, error) {
			return Run(kind, opts, wl, scale, src, cfg)
		},
	}
}

// cellFingerprint canonically serializes everything that determines a
// cell's simulated outcome: design kind and build options, workload
// and scale, trace source, and every deterministic sim.Config
// parameter. Floats render as IEEE-754 bit patterns so the identity is
// exact. The engine version is mixed in by the runner's Address, not
// here. Cells carrying live hooks (fault plans, observers) are not
// content-addressable and return "" — they always recompute and are
// never journaled.
func cellFingerprint(kind Kind, opts Options, wl string, scale int, src power.Source, cfg sim.Config) string {
	if cfg.FaultPlan != nil || cfg.Obs != nil {
		return ""
	}
	o := opts.normalize()
	w := fingerprintWriter{b: make([]byte, 0, 400)}
	w.str("design=", string(kind))
	w.str(" wl=", wl)
	w.int(" scale=", int64(scale))
	w.str(" trace=", string(src))
	w.int(" geom=", int64(o.Geometry.SizeBytes))
	w.int("/", int64(o.Geometry.Ways))
	w.int("/", int64(o.Geometry.LineBytes))
	w.int(" cpol=", int64(o.CachePolicy))
	w.int(" dqpol=", int64(o.DQPolicy))
	w.int(" dqcap=", int64(o.DQCap))
	w.int(" maxline=", int64(o.Maxline))
	// adaptive, swjit and margin name deleted knobs (the kind alone
	// picks WL-Cache's adaptation mode); their constant values keep
	// every journal and serve-store address stable.
	w.str(" adaptive=", "0/false")
	w.str(" swjit=", "false")
	w.int(" cyc=", cfg.CyclePS)
	w.bits(" ie=", cfg.InstrEnergy)
	w.int(" chunk=", int64(cfg.ComputeChunk))
	w.bits(" cap=", cfg.CapacitorF)
	w.bits(" vmin=", cfg.VMin)
	w.bits(" vmax=", cfg.VMax)
	w.bits(" von=", cfg.VonDelta)
	w.str(" margin=", "3ff0000000000000") // 1.0 as bits; see swjit above
	w.bits(" eff=", cfg.OnHarvestEff)
	w.bool(" inv=", cfg.CheckInvariants)
	w.uint(" maxout=", cfg.MaxOutages)
	if ic := cfg.ICache; ic != nil {
		w.int(" icache=", ic.FetchLatency)
		w.bits("/", ic.FetchEnergy)
		w.int("/", int64(ic.CodeLines))
		w.bool("/", ic.WarmAcrossOutage)
		w.int("/", ic.LineFillTime)
		w.bits("/", ic.LineFillEnergy)
	} else {
		w.str(" icache=", "nil")
	}
	// The tier changes the result under its own contract, so it is part
	// of the identity — but only appended for non-exact tiers, keeping
	// every pre-tier fingerprint (and thus every existing journal and
	// golden address) unchanged.
	if cfg.Tier != sim.TierExact {
		w.str(" tier=", cfg.Tier.String())
	}
	return string(w.b)
}

// fingerprintWriter appends a cell fingerprint's key=value fields:
// integers in decimal, booleans as true/false and floats as their
// 16-digit lowercase hex IEEE-754 bit pattern — the bytes of the
// %d, %t and %016x verbs the format has always used, so no content
// address moves.
type fingerprintWriter struct{ b []byte }

func (w *fingerprintWriter) str(key, s string) { w.b = append(append(w.b, key...), s...) }

func (w *fingerprintWriter) int(key string, n int64) {
	w.b = strconv.AppendInt(append(w.b, key...), n, 10)
}

func (w *fingerprintWriter) uint(key string, n uint64) {
	w.b = strconv.AppendUint(append(w.b, key...), n, 10)
}

func (w *fingerprintWriter) bool(key string, v bool) {
	w.b = strconv.AppendBool(append(w.b, key...), v)
}

func (w *fingerprintWriter) bits(key string, f float64) {
	const hex = "0123456789abcdef"
	w.b = append(w.b, key...)
	u := math.Float64bits(f)
	for shift := 60; shift >= 0; shift -= 4 {
		w.b = append(w.b, hex[u>>shift&0xf])
	}
}

// gmeanOrNaN is Gmean that propagates NaN/non-positive samples as NaN
// (used where a configuration is infeasible for some design).
func gmeanOrNaN(xs []float64) float64 {
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return math.NaN()
		}
	}
	return stats.Gmean(xs)
}

// speedupTable builds the paper's standard per-benchmark layout: one
// row per benchmark plus gmean(Media), gmean(Mi) and gmean(Total),
// with each column a design's speedup over the NVSRAM baseline.
func speedupTable(title string, names []string, columns []string,
	times func(wl string) (base float64, perCol []float64)) *stats.Table {
	t := stats.NewTable(title, columns...)
	perColRatios := make([][]float64, len(columns))
	mediaSet := map[string]bool{}
	for _, n := range workload.SuiteNames(workload.MediaBench) {
		mediaSet[n] = true
	}
	mediaRatios := make([][]float64, len(columns))
	miRatios := make([][]float64, len(columns))
	for _, wl := range names {
		base, per := times(wl)
		row := make([]float64, len(columns))
		for i, tm := range per {
			r := base / tm
			row[i] = r
			perColRatios[i] = append(perColRatios[i], r)
			if mediaSet[wl] {
				mediaRatios[i] = append(mediaRatios[i], r)
			} else {
				miRatios[i] = append(miRatios[i], r)
			}
		}
		t.Add(wl, row...)
	}
	addG := func(label string, rs [][]float64) {
		row := make([]float64, len(columns))
		for i := range columns {
			if len(rs[i]) > 0 {
				row[i] = stats.Gmean(rs[i])
			}
		}
		t.Add(label, row...)
	}
	addG("gmean(Media)", mediaRatios)
	addG("gmean(Mi)", miRatios)
	addG("gmean(Total)", perColRatios)
	return t
}

// subsetNames intersects the context's workload list with the full
// registry, preserving figure order.
func subsetNames(ctx Context) []string {
	want := map[string]bool{}
	for _, n := range ctx.Workloads {
		want[n] = true
	}
	var out []string
	for _, n := range workload.Names() {
		if want[n] {
			out = append(out, n)
		}
	}
	return out
}
