package expt

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wlcache/internal/cache"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// quickCtx runs experiments on a representative benchmark subset so
// shape tests stay fast.
func quickCtx() Context {
	return Context{Workloads: []string{
		"adpcmencode", "jpegencode", "sha", "susanedges", "qsort", "dijkstra", "rijndael_e",
	}}
}

// TestExperimentRegistry: every experiment is listed once, in the
// paper's order (DESIGN.md §4's rows, then the discussion sections and
// the extensions), which is the order `wlbench -experiment all` prints.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"table1", "table2", "hwcost", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9",
		"fig10a", "fig10b", "fig11", "fig12", "fig13a", "fig13b", "adaptstats",
		"sec33", "nvsramvariants", "related", "icache"}
	for _, e := range Experiments() {
		if e.Title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("experiments %v, want %v", got, want)
	}
	if _, ok := ByID("fig4"); !ok {
		t.Fatal("ByID(fig4) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	if len(IDs()) != len(Experiments()) {
		t.Fatal("IDs length mismatch")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind accepted")
		}
	}()
	NewDesign(Kind("bogus"), Options{})
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(KindWL, Options{}, "bogus", 1, power.None, sim.DefaultConfig()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunUnknownDesign(t *testing.T) {
	_, err := Run(Kind("bogus"), Options{}, "sha", 1, power.None, sim.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), `unknown design kind "bogus"`) {
		t.Fatalf("unknown design kind: err = %v", err)
	}
}

// TestRunMaxlineOutOfRange: a WL-Cache maxline outside 1..DQCap (after
// defaults) is an error, not core.New's panic; other kinds ignore it.
func TestRunMaxlineOutOfRange(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Maxline: -1}, "maxline -1 out of range (1..8)"},
		{Options{Maxline: 9}, "maxline 9 out of range (1..8)"},
		{Options{DQCap: 4}, "maxline 6 out of range (1..4)"},
	} {
		for _, kind := range []Kind{KindWL, KindWLFixed, KindWLDyn} {
			_, err := Run(kind, c.opts, "sha", 1, power.None, sim.DefaultConfig())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %+v: err = %v, want %q", kind, c.opts, err, c.want)
			}
		}
	}
	if _, err := Run(KindNVSRAM, Options{Maxline: 9}, "basicmath", 1, power.None, sim.DefaultConfig()); err != nil {
		t.Fatalf("nvsram takes no maxline, yet: %v", err)
	}
}

// TestRunWorkloadPanicIsError: with the invariant checks off, the broken
// design hands jpegdecode a corrupted load that the kernel uses as an
// array index. The kernel's out-of-range panic comes back from Run as
// an error matching sim.ErrPanic, carrying the panic value and stack,
// instead of crashing the caller.
func TestRunWorkloadPanicIsError(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Tier = sim.TierFast
	cfg.CapacitorF = 344e-9
	_, err := Run(KindBroken, Options{}, "jpegdecode", 1, power.Trace2, cfg)
	if !errors.Is(err, sim.ErrPanic) {
		t.Fatalf("err = %v, want one matching sim.ErrPanic", err)
	}
	var pe *sim.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panic value or stack lost: %#v", err)
	}
	if rerr, ok := pe.Value.(error); !ok || !strings.Contains(rerr.Error(), "index out of range") {
		t.Fatalf("panic value %v, want the kernel's index out of range", pe.Value)
	}
}

// TestAllKindsOrder pins AllKinds: its order is the golden matrix
// order and the serve.Spec default, so a reorder would rename the
// default sweep and its journal.
func TestAllKindsOrder(t *testing.T) {
	want := []Kind{
		"nocache", "vcache-wt", "wt-buffer", "nvcache-wb", "nvsram", "nvsram-full", "nvsram-practical",
		"eager-wb", "replaycache", "broken", "wl-fixed", "wl", "wl-dyn",
	}
	if got := AllKinds(); !slices.Equal(got, want) {
		t.Fatalf("AllKinds() = %v\nwant %v", got, want)
	}
}

// TestHeadlineClaims asserts the paper's core results hold in shape:
//
//  1. without power failures NVSRAM(ideal) is the fastest design and
//     WL-Cache is within ~20% of it;
//  2. under both RF traces WL-Cache (adaptive) beats NVSRAM(ideal);
//  3. NVCache-WB is the slowest cached design under traces;
//  4. every design produces the identical checksum everywhere.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design sweep")
	}
	ctx := quickCtx().normalize()
	kinds := []Kind{KindNVCache, KindVCacheWT, KindReplay, KindWL}
	for _, src := range []power.Source{power.None, power.Trace1, power.Trace2} {
		ratios, results, err := speedups(ctx, cell{kind: KindNVSRAM, src: src}, kindCells(src, Options{}, kinds...)...)
		if err != nil {
			t.Fatal(err)
		}
		gm := map[Kind]float64{}
		for ki, g := range gmeans(ratios) {
			gm[kinds[ki]] = g
		}
		// Checksums equal across designs per workload.
		for i, wl := range ctx.Workloads {
			for _, r := range results[i] {
				if r.Checksum != results[i][0].Checksum {
					t.Fatalf("src %s, workload %s: checksum mismatch between designs", src, wl)
				}
			}
		}
		switch src {
		case power.None:
			// WL tracks NVSRAM closely without failures (its eager
			// cleaning can even win on eviction-heavy workloads, so a
			// small advantage on a subset is acceptable).
			if gm[KindWL] > 1.15 || gm[KindWL] < 0.80 {
				t.Errorf("no-failure: WL (%.3f) should be close to NVSRAM", gm[KindWL])
			}
			if gm[KindNVCache] >= gm[KindVCacheWT] {
				t.Errorf("no-failure: NVCache (%.3f) should trail VCache-WT (%.3f)", gm[KindNVCache], gm[KindVCacheWT])
			}
		default:
			if gm[KindWL] <= 1.0 {
				t.Errorf("%s: WL (%.3f) must beat NVSRAM (paper: 1.35x/1.44x)", src, gm[KindWL])
			}
			for _, k := range []Kind{KindNVCache, KindVCacheWT, KindReplay} {
				if gm[k] >= gm[KindWL] {
					t.Errorf("%s: %s (%.3f) should trail WL (%.3f)", src, k, gm[k], gm[KindWL])
				}
			}
			if gm[KindNVCache] >= gm[KindVCacheWT] {
				t.Errorf("%s: NVCache (%.3f) should be the slowest cached design (WT %.3f)", src, gm[KindNVCache], gm[KindVCacheWT])
			}
		}
	}
}

// TestWriteTrafficClaim: WL-Cache's NVM write traffic exceeds
// NVSRAM's (it cleans lines early and sometimes repeatedly), which is
// the overhead Figure 7 quantifies.
func TestWriteTrafficClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	ctx := quickCtx().normalize()
	for _, wl := range ctx.Workloads {
		base, err := Run(KindNVSRAM, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(KindWL, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.NVMTraffic.WriteWords < base.NVMTraffic.WriteWords {
			t.Errorf("%s: WL wrote less than NVSRAM (%d < %d)", wl,
				res.NVMTraffic.WriteWords, base.NVMTraffic.WriteWords)
		}
	}
}

// TestMaxlineSweepShape: maxline 1 is the worst WL configuration (it
// degenerates toward write-through); the default 6 beats it.
func TestMaxlineSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	for _, wl := range []string{"sha", "qsort"} {
		t1, err := Run(KindWLFixed, Options{Maxline: 1}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		t6, err := Run(KindWLFixed, Options{Maxline: 6}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if t6.ExecTime >= t1.ExecTime {
			t.Errorf("%s: maxline 6 (%d) not faster than maxline 1 (%d)", wl, t6.ExecTime, t1.ExecTime)
		}
	}
}

// TestCapacitorSweepShape: large capacitors slow everything down
// (charging time dominates), reproducing Figure 10(b)'s right side.
func TestCapacitorSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	run := func(cf float64) int64 {
		cfg := sim.DefaultConfig()
		cfg.CapacitorF = cf
		res, err := Run(KindWL, Options{}, "sha", 1, power.Trace1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	at1u := run(1e-6)
	at100u := run(100e-6)
	if at100u <= at1u {
		t.Errorf("100uF (%d) should be slower than 1uF (%d)", at100u, at1u)
	}
}

// TestExperimentsRenderOnSubset executes every registered experiment
// on a tiny subset and sanity-checks the rendered output.
func TestExperimentsRenderOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ctx := Context{Workloads: []string{"sha", "qsort"}}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

// TestRunCellsFirstErrorByIndex pins the error-aggregation contract:
// when several cells fail, runCells reports the lowest-index failure —
// regardless of worker scheduling — and still returns every completed
// result. Cell 1 (unknown workload) fails instantly; cell 5 (also
// unknown) fails instantly too; a racy aggregator could report either,
// and before the runner rewrite, whichever worker wrote errs last won.
func TestRunCellsFirstErrorByIndex(t *testing.T) {
	ctx := Context{Parallelism: 8}
	for trial := 0; trial < 10; trial++ {
		cells := []cell{
			{kind: KindWL, wl: "adpcmencode", src: power.None},
			{kind: KindWL, wl: "bogus-one", src: power.None},
			{kind: KindNVSRAM, wl: "adpcmencode", src: power.None},
			{kind: KindWL, wl: "basicmath", src: power.None},
			{kind: KindVCacheWT, wl: "adpcmencode", src: power.None},
			{kind: KindWL, wl: "bogus-two", src: power.None},
		}
		results, err := runCells(ctx, cells)
		if err == nil {
			t.Fatal("failing sweep returned nil error")
		}
		var ce *runner.CellError
		if !errors.As(err, &ce) {
			t.Fatalf("error not cell-attributed: %v", err)
		}
		if ce.Index != 1 {
			t.Fatalf("trial %d: error picked cell %d (%s), want deterministic first-by-index 1", trial, ce.Index, ce.ID)
		}
		if !strings.Contains(err.Error(), "cell wl/bogus-one/none") {
			t.Fatalf("error does not name the offending cell: %v", err)
		}
		// Completed cells ride along with the error.
		if len(results) != len(cells) || results[0].Instructions == 0 {
			t.Fatalf("trial %d: completed results dropped on error", trial)
		}
	}
}

// TestRunCellsPanicIsolated: a poisoned cell (a cache geometry whose
// set count is not a power of two panics inside cache.NewArray) must
// surface as a typed, cell-attributed error instead of crashing the
// whole sweep process.
func TestRunCellsPanicIsolated(t *testing.T) {
	bad := cache.Geometry{SizeBytes: 3 * 2 * 64, Ways: 2, LineBytes: 64}
	cells := []cell{
		{kind: KindWL, wl: "adpcmencode", src: power.None},
		{kind: KindWL, opts: Options{Geometry: bad}, wl: "adpcmencode", src: power.None},
	}
	results, err := runCells(Context{Parallelism: 2}, cells)
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	if !errors.Is(err, sim.ErrPanic) {
		t.Fatalf("panic not typed: %v", err)
	}
	var ce *runner.CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("panic not attributed: %v", err)
	}
	if results[0].Instructions == 0 {
		t.Fatal("healthy cell lost to the neighbour's panic")
	}
}

// TestCellFingerprintDiscriminates: the content address input must
// change whenever any result-determining parameter changes, and must
// be empty (uncacheable) for configs carrying live hooks.
func TestCellFingerprintDiscriminates(t *testing.T) {
	base := func() string {
		return cellFingerprint(KindWL, Options{}, "sha", 1, power.Trace1, sim.DefaultConfig())
	}
	if base() != base() {
		t.Fatal("fingerprint not deterministic")
	}
	altCfg := sim.DefaultConfig()
	altCfg.CapacitorF *= 2
	altIC := sim.DefaultConfig()
	altIC.ICache = sim.SRAMICache()
	variants := []string{
		cellFingerprint(KindNVSRAM, Options{}, "sha", 1, power.Trace1, sim.DefaultConfig()),
		cellFingerprint(KindWL, Options{Maxline: 2}, "sha", 1, power.Trace1, sim.DefaultConfig()),
		cellFingerprint(KindWL, Options{}, "qsort", 1, power.Trace1, sim.DefaultConfig()),
		cellFingerprint(KindWL, Options{}, "sha", 2, power.Trace1, sim.DefaultConfig()),
		cellFingerprint(KindWL, Options{}, "sha", 1, power.Trace2, sim.DefaultConfig()),
		cellFingerprint(KindWL, Options{}, "sha", 1, power.Trace1, altCfg),
		cellFingerprint(KindWL, Options{}, "sha", 1, power.Trace1, altIC),
	}
	seen := map[string]bool{base(): true}
	for i, v := range variants {
		if v == "" {
			t.Fatalf("variant %d unexpectedly uncacheable", i)
		}
		if seen[v] {
			t.Fatalf("variant %d collides with another fingerprint", i)
		}
		seen[v] = true
	}
	hooked := sim.DefaultConfig()
	hooked.FaultPlan = nopFaultPlan{}
	if fp := cellFingerprint(KindWL, Options{}, "sha", 1, power.Trace1, hooked); fp != "" {
		t.Fatalf("hook-carrying config got a fingerprint %q; must be uncacheable", fp)
	}
}

type nopFaultPlan struct{}

func (nopFaultPlan) Arm(*mem.NVM, sim.Design, *obs.Recorder) {}
func (nopFaultPlan) ShouldCrash(uint64, int64) bool          { return false }
func (nopFaultPlan) CheckpointStart(int64, bool)             {}
func (nopFaultPlan) CheckpointEnd(int64)                     {}

// TestCellFingerprintCoversEveryField perturbs every sim.Config and
// Options field alone, found by reflection (nested structs and the
// ICache model included): the fingerprint must change, unless the field
// is a live hook, which makes the cell uncacheable (""), or derived
// from the trace source, which Run overwrites. A field added to either
// struct without a fingerprint term fails here.
func TestCellFingerprintCoversEveryField(t *testing.T) {
	hooks := map[string]bool{"Config.FaultPlan": true, "Config.Obs": true}
	derived := map[string]bool{"Config.Trace": true}
	var opts Options
	cfg := sim.DefaultConfig()
	cfg.ICache = sim.SRAMICache() // non-nil, so its fields are walked too
	fingerprint := func() string { return cellFingerprint(KindWL, opts, "sha", 1, power.Trace1, cfg) }
	base := fingerprint()
	check := func(name string) {
		got := fingerprint()
		switch {
		case hooks[name]:
			if got != "" {
				t.Errorf("%s: hook-carrying config got fingerprint %q, want uncacheable", name, got)
			}
		case derived[name]:
			if got != base {
				t.Errorf("%s: a field derived from the trace source changed the fingerprint", name)
			}
		case got == base:
			t.Errorf("%s: changing it leaves the fingerprint unchanged", name)
		}
	}
	perturbFields(t, reflect.ValueOf(&opts).Elem(), "Options", check)
	perturbFields(t, reflect.ValueOf(&cfg).Elem(), "Config", check)
	if fingerprint() != base {
		t.Fatal("a perturbation was not undone")
	}
}

// perturbFields changes each leaf field of struct v in turn — integers
// and floats +1, bools flipped, nil pointers allocated, non-nil struct
// pointers walked and then cleared, the FaultPlan interface set to a
// no-op plan — calls check with its dotted name, and restores it.
func perturbFields(t *testing.T, v reflect.Value, path string, check func(name string)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := path + "." + v.Type().Field(i).Name
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch {
		case f.Kind() == reflect.Struct:
			perturbFields(t, f, name, check)
			continue
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanUint():
			f.SetUint(f.Uint() + 1)
		case f.CanFloat():
			f.SetFloat(f.Float() + 1)
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.Kind() == reflect.Pointer && f.IsNil():
			f.Set(reflect.New(f.Type().Elem()))
		case f.Kind() == reflect.Pointer:
			if f.Elem().Kind() == reflect.Struct {
				perturbFields(t, f.Elem(), name, check)
			}
			f.Set(reflect.Zero(f.Type()))
		case f.Kind() == reflect.Interface && reflect.TypeOf(nopFaultPlan{}).Implements(f.Type()):
			f.Set(reflect.ValueOf(nopFaultPlan{}))
		default:
			t.Fatalf("%s: no perturbation for a %s field; extend perturbFields", name, f.Type())
		}
		check(name)
		f.Set(old)
	}
}

// TestResolveWorkloadsPreservesOrder ensures figure ordering is
// stable: an experiment's list is in registry order, each name once,
// however it was spelled, and nil means all 23.
func TestResolveWorkloadsPreservesOrder(t *testing.T) {
	want := []string{"adpcmdecode", "sha", "qsort"} // registry order
	for _, list := range [][]string{
		{"qsort", "sha", "adpcmdecode"},
		{" qsort", "", "sha", "qsort", "adpcmdecode "},
	} {
		names, err := resolveWorkloads(list)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 3 {
			t.Fatalf("names = %v", names)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("order = %v, want %v", names, want)
			}
		}
	}
	if all, err := resolveWorkloads(nil); err != nil || !slices.Equal(all, workload.Names()) {
		t.Fatalf("nil list = %v, %v; want all %d workloads", all, err, len(workload.Names()))
	}
}

// TestScaleGrowsSimulatedWork: the Context scale parameter reaches the
// kernels.
func TestScaleGrowsSimulatedWork(t *testing.T) {
	r1, err := Run(KindWL, Options{}, "adpcmencode", 1, power.None, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(KindWL, Options{}, "adpcmencode", 2, power.None, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Instructions < r1.Instructions*3/2 {
		t.Fatal("scale had no effect")
	}
}

// TestNVSRAMVariantShape checks the §2.3.3 ordering: the full variant
// cannot beat the ideal one under power failures (it checkpoints the
// whole cache every outage), and the practical variant trails both
// (slow NV-way accesses, eager write-back traffic).
func TestNVSRAMVariantShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	for _, wl := range []string{"sha", "susanedges"} {
		ideal, err := Run(KindNVSRAM, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(KindNVSRAMFull, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pract, err := Run(KindNVSRAMPractical, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if full.ExecTime < ideal.ExecTime {
			t.Errorf("%s: NVSRAM(full) (%d) beat NVSRAM(ideal) (%d)", wl, full.ExecTime, ideal.ExecTime)
		}
		// On load-dominated kernels the practical variant's smaller
		// reserve can eke out a small win, so allow a 5% band; the
		// gmean ordering (practical well below ideal) is asserted by
		// the nvsramvariants experiment output.
		if float64(pract.ExecTime) < 0.95*float64(ideal.ExecTime) {
			t.Errorf("%s: NVSRAM(practical) (%d) beat NVSRAM(ideal) (%d) by >5%%", wl, pract.ExecTime, ideal.ExecTime)
		}
		if full.Checksum != ideal.Checksum || pract.Checksum != ideal.Checksum {
			t.Errorf("%s: variant checksums diverged", wl)
		}
	}
}

// TestWTBufferShape checks the §3.3 claims: the buffer helps without
// failures (async stores) but WL-Cache wins under them.
func TestWTBufferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	wl := "sha"
	wtNone, err := Run(KindVCacheWT, Options{}, wl, 1, power.None, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bufNone, err := Run(KindWTBuffer, Options{}, wl, 1, power.None, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if bufNone.ExecTime >= wtNone.ExecTime {
		t.Errorf("write buffer did not help without failures (%d vs %d)", bufNone.ExecTime, wtNone.ExecTime)
	}
	bufTr, err := Run(KindWTBuffer, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wlTr, err := Run(KindWL, Options{}, wl, 1, power.Trace1, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if wlTr.ExecTime >= bufTr.ExecTime {
		t.Errorf("WL-Cache (%d) should beat WT+buffer (%d) under failures (§3.3)", wlTr.ExecTime, bufTr.ExecTime)
	}
}

// TestICacheFor pins the per-design instruction-path mapping.
func TestICacheFor(t *testing.T) {
	if ICacheFor(KindNoCache).FetchLatency != sim.NoICache().FetchLatency {
		t.Fatal("NoCache must fetch from NVM")
	}
	if ICacheFor(KindNVCache).FetchLatency != sim.NVICache().FetchLatency {
		t.Fatal("NVCache must fetch from NV cells")
	}
	if !ICacheFor(KindNVSRAM).WarmAcrossOutage {
		t.Fatal("NVSRAM I-cache must restore warm")
	}
	if ICacheFor(KindWL).WarmAcrossOutage {
		t.Fatal("WL-Cache's volatile I-cache must boot cold")
	}
}

// TestSpeedups pins the kernel every normalized figure shares: per
// workload, in names order, the base result first, then the variants,
// and each variant's ratio base/variant over the same runs.
func TestSpeedups(t *testing.T) {
	names := []string{"sha", "adpcmencode"}
	ratios, results, err := speedups(Context{Workloads: names}, cell{kind: KindNVSRAM, src: power.None},
		cell{kind: KindWL, src: power.None}, cell{kind: KindVCacheWT, src: power.None})
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 2 || len(results) != len(names) {
		t.Fatalf("shape: %d ratio columns, %d result rows", len(ratios), len(results))
	}
	for i, wl := range names {
		for v, kind := range []Kind{KindNVSRAM, KindWL, KindVCacheWT} {
			want, err := Run(kind, Options{}, wl, 1, power.None, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if results[i][v] != want {
				t.Errorf("%s: results[%d][%d] is not the %s run", wl, i, v, kind)
			}
		}
		for v := range ratios {
			if want := float64(results[i][0].ExecTime) / float64(results[i][1+v].ExecTime); ratios[v][i] != want {
				t.Errorf("%s: ratios[%d] = %v, want %v", wl, v, ratios[v][i], want)
			}
		}
	}
}

// TestSpeedupTablesOmitEmptySuite: a per-benchmark table has a
// gmean row for a suite only when the subset holds one of its
// benchmarks, so a single-suite subset prints no all-zero row, and a
// subset spanning both suites keeps all three gmean rows.
func TestSpeedupTablesOmitEmptySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	all := []string{"gmean(Media)", "gmean(Mi)", "gmean(Total)"}
	for _, c := range []struct {
		workloads []string
		rows      []string
	}{
		{[]string{"sha"}, []string{"gmean(Media)", "gmean(Total)"}},
		{[]string{"qsort"}, []string{"gmean(Mi)", "gmean(Total)"}},
		{[]string{"sha", "qsort"}, all},
	} {
		for _, id := range []string{"fig4", "fig7", "fig11"} {
			e, _ := ByID(id)
			out, err := e.Run(Context{Workloads: c.workloads, Tier: sim.TierFast})
			if err != nil {
				t.Fatalf("%s on %v: %v", id, c.workloads, err)
			}
			var got []string
			table, _, _ := strings.Cut(out, "\n\n")
			for _, line := range strings.Split(table, "\n") {
				fields := strings.Fields(line)
				if len(fields) == 0 || !slices.Contains(all, fields[0]) {
					continue
				}
				got = append(got, fields[0])
				if slices.Contains(fields[1:], "0.000") {
					t.Errorf("%s on %v: zero gmean row %q", id, c.workloads, line)
				}
			}
			if !slices.Equal(got, c.rows) {
				t.Errorf("%s on %v: gmean rows %v, want %v\n%s", id, c.workloads, got, c.rows, out)
			}
		}
	}
}

// TestNoExperimentRunsOnNothing: every registered experiment rejects a
// workload list with an unknown name or with no name at all, naming
// the bad entry, and on one- and two-benchmark subsets prints no NaN,
// no infinity and no empty-range sentinel.
func TestNoExperimentRunsOnNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, c := range []struct {
		workloads []string
		err       string
	}{
		{[]string{"bogus"}, `unknown workload "bogus"`},
		{[]string{""}, `Context.Workloads "" names no workload`},
		{[]string{"sha"}, ""},
		{[]string{"qsort"}, ""},
		{[]string{"sha", "qsort"}, ""},
	} {
		for _, e := range Experiments() {
			out, err := e.Run(Context{Workloads: c.workloads, Tier: sim.TierFast})
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Errorf("%s on %q: err = %v, want %q", e.ID, c.workloads, err, c.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s on %q: %v", e.ID, c.workloads, err)
			}
			for _, bad := range []string{"NaN", "Inf", "[99,0]"} {
				if strings.Contains(out, bad) {
					t.Errorf("%s on %q prints %s:\n%s", e.ID, c.workloads, bad, out)
				}
			}
		}
	}
}
