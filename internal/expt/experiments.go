package expt

import (
	"context"
	"math"
	"runtime"
	"slices"
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
	run   func(ctx Context) (string, error)
}

// Run runs the experiment on ctx.Workloads, resolved once here, so no
// experiment runs on a list that names nothing.
func (e Experiment) Run(ctx Context) (string, error) {
	names, err := resolveWorkloads(ctx.Workloads)
	if err != nil {
		return "", err
	}
	ctx.Workloads = names
	return e.run(ctx)
}

// resolveWorkloads is an experiment's benchmark list: all 23 for nil,
// otherwise the checked list in registry order, each name once.
func resolveWorkloads(list []string) ([]string, error) {
	if list == nil {
		return workload.Names(), nil
	}
	want, err := Workloads.Resolve("Context.Workloads", list)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(workload.Names(), func(n string) bool { return !slices.Contains(want, n) }), nil
}

// experiments lists every experiment in the paper's order: DESIGN.md
// §4's table rows, then the measured discussion sections and the
// extensions.
var experiments = []Experiment{
	{ID: "table1", Title: "Table 1: hardware complexity and performance comparison", run: table1},
	{ID: "table2", Title: "Table 2: simulation configuration", run: table2},
	{ID: "hwcost", Title: "Section 6.2: WL-Cache hardware cost (mini-CACTI, 90 nm)", run: hwcostReport},
	{ID: "fig4", Title: "Figure 4: normalized speedup vs NVSRAM(ideal), no power failure",
		run: func(ctx Context) (string, error) { return figSpeedups(ctx, power.None, "Figure 4 (no power failure)") }},
	{ID: "fig5", Title: "Figure 5: normalized speedup vs NVSRAM(ideal), Power Trace 1",
		run: func(ctx Context) (string, error) { return figSpeedups(ctx, power.Trace1, "Figure 5 (Power Trace 1)") }},
	{ID: "fig6", Title: "Figure 6: normalized speedup vs NVSRAM(ideal), Power Trace 2",
		run: func(ctx Context) (string, error) { return figSpeedups(ctx, power.Trace2, "Figure 6 (Power Trace 2)") }},
	{ID: "fig7", Title: "Figure 7: normalized write traffic increase vs NVSRAM(ideal), Power Trace 1", run: fig7},
	{ID: "fig8a", Title: "Figure 8(a): DirtyQueue replacement policy (DQ-FIFO vs DQ-LRU)", run: fig8a},
	{ID: "fig8b", Title: "Figure 8(b): cache set associativity (direct-mapped, 2-way, 4-way)", run: fig8b},
	{ID: "fig9", Title: "Figure 9: maxline (2..8) x cache replacement (FIFO/LRU) sensitivity, Power Trace 1", run: fig9},
	{ID: "fig10a", Title: "Figure 10(a): cache size sweep 128B..4KB, Power Trace 1", run: fig10a},
	{ID: "fig10b", Title: "Figure 10(b): capacitor size sweep 100nF..1mF, Power Trace 1", run: fig10b},
	{ID: "fig11", Title: "Figure 11: adaptive vs best-static WL-Cache, Power Trace 1",
		run: func(ctx Context) (string, error) { return figAdaptive(ctx, power.Trace1, "Figure 11 (Power Trace 1)") }},
	{ID: "fig12", Title: "Figure 12: adaptive vs best-static WL-Cache, Power Trace 2",
		run: func(ctx Context) (string, error) { return figAdaptive(ctx, power.Trace2, "Figure 12 (Power Trace 2)") }},
	{ID: "fig13a", Title: "Figure 13(a): performance across power traces (tr.1/tr.2/tr.3/solar/thermal)", run: fig13a},
	{ID: "fig13b", Title: "Figure 13(b): energy consumption breakdown, Power Trace 1", run: fig13b},
	{ID: "adaptstats", Title: "Section 6.6: adaptive threshold statistics", run: adaptStats},
	{ID: "sec33", Title: "Section 3.3: WL-Cache vs the write-through + write-buffer alternative", run: sec33},
	{ID: "nvsramvariants", Title: "Section 2.3.3: NVSRAM full vs ideal vs practical, measured", run: nvsramVariants},
	{ID: "related", Title: "Section 7/Table 3: eager write-back without a dirty bound (extension)", run: relatedExperiment},
	{ID: "icache", Title: "Instruction-cache model: design gaps with I-fetch charged (extension)", run: icacheExperiment},
}

// Experiments returns every experiment in the paper's order.
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

// speedups runs base and every variant on each workload of
// ctx.Workloads. The cells are templates: speedups fills in the
// workload and submits [base, variants...] per workload, in that
// order. ratios[v][i] is variant v's speedup over base on workload i;
// results[i] holds that workload's results, base first.
func speedups(ctx Context, base cell, variants ...cell) (ratios [][]float64, results [][]sim.Result, err error) {
	names := ctx.Workloads
	per := 1 + len(variants)
	cells := make([]cell, 0, per*len(names))
	for _, wl := range names {
		base.wl = wl
		cells = append(cells, base)
		for _, v := range variants {
			v.wl = wl
			cells = append(cells, v)
		}
	}
	flat, err := runCells(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	ratios = make([][]float64, len(variants))
	results = make([][]sim.Result, len(names))
	for i := range names {
		row := flat[per*i : per*(i+1)]
		results[i] = row
		for v := range variants {
			ratios[v] = append(ratios[v], float64(row[0].ExecTime)/float64(row[1+v].ExecTime))
		}
	}
	return ratios, results, nil
}

// kindCells is one variant cell template per design kind, all with the
// same options and power source.
func kindCells(src power.Source, opts Options, kinds ...Kind) []cell {
	cells := make([]cell, len(kinds))
	for i, k := range kinds {
		cells[i] = cell{kind: k, opts: opts, src: src}
	}
	return cells
}

// gmeans is one table row: the geometric mean of each variant's ratios.
func gmeans(ratios [][]float64) []float64 {
	row := make([]float64, len(ratios))
	for v, rs := range ratios {
		row[v] = stats.Gmean(rs)
	}
	return row
}

// rowOf is workload i's row: every variant's ratio on it.
func rowOf(ratios [][]float64, i int) []float64 {
	row := make([]float64, len(ratios))
	for v, rs := range ratios {
		row[v] = rs[i]
	}
	return row
}

// speedupTable builds the paper's standard per-benchmark layout from
// ratios[column][benchmark]: one row per benchmark, then gmean(Media)
// and gmean(Mi) for each suite with a benchmark in names, and
// gmean(Total).
func speedupTable(title string, names, columns []string, ratios [][]float64) *stats.Table {
	t := stats.NewTable(title, columns...)
	var media, mi []int
	for i, wl := range names {
		t.Add(wl, rowOf(ratios, i)...)
		if w, _ := workload.ByName(wl); w.Suite == workload.MediaBench {
			media = append(media, i)
		} else {
			mi = append(mi, i)
		}
	}
	for _, g := range []struct {
		label string
		rows  []int
	}{{"gmean(Media)", media}, {"gmean(Mi)", mi}} {
		if len(g.rows) == 0 {
			continue
		}
		sub := make([][]float64, len(ratios))
		for c, rs := range ratios {
			for _, i := range g.rows {
				sub[c] = append(sub[c], rs[i])
			}
		}
		t.Add(g.label, gmeans(sub)...)
	}
	t.Add("gmean(Total)", gmeans(ratios)...)
	return t
}
