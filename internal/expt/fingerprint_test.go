package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlcache/internal/cache"
	"wlcache/internal/core"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// fmtFingerprint is cellFingerprint as every content address so far was
// minted: one fmt.Sprintf. It is the oracle the strconv builder must
// match byte for byte; a mismatch would move every journal and golden
// address under the same engine version.
func fmtFingerprint(kind Kind, opts Options, wl string, scale int, src power.Source, cfg sim.Config) string {
	if cfg.FaultPlan != nil || cfg.Obs != nil {
		return ""
	}
	o := opts.normalize()
	fp := fmt.Sprintf(
		"design=%s wl=%s scale=%d trace=%s"+
			" geom=%d/%d/%d cpol=%d dqpol=%d dqcap=%d maxline=%d adaptive=0/false swjit=false"+
			" cyc=%d ie=%016x chunk=%d cap=%016x vmin=%016x vmax=%016x von=%016x margin=3ff0000000000000 eff=%016x inv=%t maxout=%d",
		kind, wl, scale, src,
		o.Geometry.SizeBytes, o.Geometry.Ways, o.Geometry.LineBytes,
		o.CachePolicy, o.DQPolicy, o.DQCap, o.Maxline,
		cfg.CyclePS, math.Float64bits(cfg.InstrEnergy), cfg.ComputeChunk,
		math.Float64bits(cfg.CapacitorF), math.Float64bits(cfg.VMin), math.Float64bits(cfg.VMax),
		math.Float64bits(cfg.VonDelta),
		math.Float64bits(cfg.OnHarvestEff), cfg.CheckInvariants, cfg.MaxOutages,
	)
	if ic := cfg.ICache; ic != nil {
		fp += fmt.Sprintf(" icache=%d/%016x/%d/%t/%d/%016x",
			ic.FetchLatency, math.Float64bits(ic.FetchEnergy), ic.CodeLines,
			ic.WarmAcrossOutage, ic.LineFillTime, math.Float64bits(ic.LineFillEnergy))
	} else {
		fp += " icache=nil"
	}
	if cfg.Tier != sim.TierExact {
		fp += " tier=" + cfg.Tier.String()
	}
	return fp
}

// TestCellAddressMatchesFmtOracle: the cell ID and the fingerprint
// RunnerCell builds are byte-identical to the fmt-built ones for every
// committed golden cell on both tiers, with and without an instruction
// cache, under every Options shape, with each Options and sim.Config
// field perturbed alone, and at extreme values.
func TestCellAddressMatchesFmtOracle(t *testing.T) {
	n := 0
	check := func(kind Kind, opts Options, wl string, scale int, src power.Source, cfg sim.Config) {
		t.Helper()
		n++
		c := RunnerCell(kind, opts, wl, scale, src, cfg)
		// RunnerCell runs a non-positive scale as 1.
		if want := fmtFingerprint(kind, opts, wl, max(scale, 1), src, cfg); c.Fingerprint != want {
			t.Errorf("fingerprint drifted from the fmt oracle:\n got %s\nwant %s", c.Fingerprint, want)
		}
		if want := fmt.Sprintf("%s/%s/%s", kind, wl, src); c.ID != want {
			t.Errorf("cell ID = %q, want %q", c.ID, want)
		}
	}

	golden, err := LoadGoldenFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 78 {
		t.Fatalf("golden pins %d cells, want 78", len(golden))
	}
	for _, tier := range []sim.Tier{sim.TierExact, sim.TierFast} {
		for _, ic := range []*sim.ICacheModel{nil, sim.SRAMICache()} {
			cfg := sim.DefaultConfig()
			cfg.Tier, cfg.ICache = tier, ic
			for _, c := range golden {
				check(Kind(c.Kind), Options{}, c.Workload, 1, power.Source(c.Trace), cfg)
			}
		}
	}

	for _, opts := range []Options{
		{Maxline: 2}, {DQCap: 3},
		{CachePolicy: cache.FIFO, DQPolicy: core.DQLRU},
		{Geometry: cache.Geometry{SizeBytes: 4096, Ways: 4, LineBytes: 32}},
	} {
		check(KindWL, opts, "sha", 3, power.Trace2, sim.DefaultConfig())
	}

	var opts Options
	cfg := sim.DefaultConfig()
	cfg.ICache = sim.SRAMICache()
	each := func(string) { check(KindWL, opts, "sha", 1, power.Trace1, cfg) }
	perturbFields(t, reflect.ValueOf(&opts).Elem(), "Options", each)
	perturbFields(t, reflect.ValueOf(&cfg).Elem(), "Config", each)

	cfg = sim.DefaultConfig()
	cfg.ICache = &sim.ICacheModel{FetchLatency: -1, FetchEnergy: math.Inf(-1), CodeLines: -7, LineFillTime: math.MinInt64, LineFillEnergy: math.NaN()}
	cfg.CyclePS, cfg.ComputeChunk, cfg.MaxOutages = math.MaxInt64, -3, math.MaxUint64
	cfg.InstrEnergy, cfg.CapacitorF, cfg.VMin = math.Copysign(0, -1), 5e-324, math.Inf(1)
	cfg.Tier = sim.Tier(9)
	check(Kind("no-such-design"), Options{Maxline: -1, DQCap: math.MinInt}, "", -5, power.Source(""), cfg)

	if n < 4*78 {
		t.Fatalf("checked %d cells", n)
	}
}

// A journal encoding/json wrote, with fmt-built fingerprints, resumes
// with zero recompute: every record of runner's testdata journal is
// served to the RunnerCell of its cell, result for result.
func TestRunnerCellResumesEncodingJSONJournal(t *testing.T) {
	data, err := os.ReadFile("../runner/testdata/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var header struct{ Engine string }
	if err := json.Unmarshal(lines[0], &header); err != nil {
		t.Fatal(err)
	}
	var cells []runner.Cell
	var want []sim.Result
	for _, line := range lines[1:] {
		var rec struct {
			ID     string
			Result sim.Result
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		parts := strings.Split(rec.ID, "/")
		c := RunnerCell(Kind(parts[0]), Options{}, parts[1], 1, power.Source(parts[2]), sim.DefaultConfig())
		c.Run = func(context.Context) (sim.Result, error) {
			t.Errorf("%s recomputed", rec.ID)
			return sim.Result{}, nil
		}
		cells = append(cells, c)
		want = append(want, rec.Result)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := runner.OpenJournal(path, header.Engine, runner.JournalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rep, err := runner.RunCells(context.Background(), runner.Config{Workers: 1, Engine: header.Engine, Journal: j}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if m := rep.Metrics; m.FromJournal != len(cells) || m.Computed != 0 {
		t.Fatalf("resume served %d of %d cells from the journal and computed %d", m.FromJournal, len(cells), m.Computed)
	}
	if !reflect.DeepEqual(rep.Results, want) {
		t.Fatalf("served results differ from the journal's:\n got %+v\nwant %+v", rep.Results, want)
	}
}
