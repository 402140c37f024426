package expt

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// checkTierPair runs one cell under both engine tiers on the base
// configuration and asserts the DESIGN.md §16 contract: counts and
// checksums identical, energies and times within FastTolerance, and
// infeasible cells failing identically. The exact run must also equal,
// bit for bit and error for error, its twin carrying a fault plan that
// never crashes: the plan makes the simulator derive its time and
// instruction ledger before every event's ShouldCrash, which a plain
// run derives only at its outages and its end.
func checkTierPair(t *testing.T, base sim.Config, kind Kind, opts Options, wl string, scale int, src power.Source) {
	t.Helper()
	id := fmt.Sprintf("%s ml=%d dq=%d cap=%g", kind, opts.Maxline, opts.DQCap, base.CapacitorF)

	exactCfg := base
	exactCfg.Tier = sim.TierExact
	resE, errE := Run(kind, opts, wl, scale, src, exactCfg)

	hookedCfg := exactCfg
	hookedCfg.FaultPlan = nopFaultPlan{}
	resH, errH := Run(kind, opts, wl, scale, src, hookedCfg)
	if fmt.Sprint(errE) != fmt.Sprint(errH) || !maps.Equal(FlattenResult(resE), FlattenResult(resH)) {
		t.Errorf("%s/%s/%s: an inert fault plan changed the exact run:\n  plain:  %v %v\n  hooked: %v %v",
			id, wl, src, errE, resE, errH, resH)
	}

	fastCfg := base
	fastCfg.Tier = sim.TierFast
	resF, errF := Run(kind, opts, wl, scale, src, fastCfg)

	if (errE != nil) != (errF != nil) {
		t.Errorf("%s/%s/%s: tier disagreement on feasibility: exact err=%v, fast err=%v",
			id, wl, src, errE, errF)
		return
	}
	if errE != nil {
		if errE.Error() != errF.Error() {
			t.Errorf("%s/%s/%s: error text drift between tiers:\n  exact: %v\n  fast:  %v",
				id, wl, src, errE, errF)
		}
		return
	}
	exact := []GoldenCell{{Kind: id, Workload: wl, Trace: string(src), Fields: FlattenResult(resE)}}
	fast := []GoldenCell{{Kind: id, Workload: wl, Trace: string(src), Fields: FlattenResult(resF)}}
	if err := CompareGoldenCellsTol(fast, exact, false, FastTolerance()); err != nil {
		t.Errorf("%s/%s/%s: %v", id, wl, src, err)
	}
}

// TestFastTierAdaptiveReconfiguration pins the hardest fast-tier
// hazard: wl-dyn raises and lowers the checkpoint reserve mid-run via
// ReserveNotifyBinder, which must settle the open window and re-arm it
// against the new threshold (a stale Vbackup would otherwise leak into
// batched windows). Trace3 is the outage-heaviest
// trace (~121 outages), none is the zero-outage degenerate case.
func TestFastTierAdaptiveReconfiguration(t *testing.T) {
	for _, wl := range []string{"sha", "adpcmencode"} {
		for _, src := range []power.Source{power.None, power.Trace1, power.Trace3} {
			checkTierPair(t, sim.DefaultConfig(), "wl-dyn", Options{}, wl, 1, src)
		}
	}
}

// TestFastTierZeroPowerAndOutageHeavy sweeps every design kind through
// the two power extremes: uninterrupted power (the untraced fast path,
// no capacitor at all) and the most unstable trace (outage handling
// re-syncs the exact voltage-space state machine on every failure).
func TestFastTierZeroPowerAndOutageHeavy(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, src := range []power.Source{power.None, power.Trace3} {
			checkTierPair(t, sim.DefaultConfig(), kind, Options{}, "sha", 1, src)
		}
	}
}

// TestFastTierPropertyRandomCells cross-validates the fast tier on a
// deterministic pseudo-random sample of design × workload × trace ×
// parameter-grid cells that the committed golden matrix does not pin:
// extra workloads, non-default maxline and DQ capacities. The seed is
// fixed so failures reproduce.
func TestFastTierPropertyRandomCells(t *testing.T) {
	kinds := AllKinds()
	workloads := []string{"sha", "adpcmencode", "adpcmdecode", "gsmencode", "qsort", "dijkstra"}
	sources := []power.Source{power.None, power.Trace1, power.Trace2, power.Trace3, power.Solar, power.Thermal}
	dqcaps := []int{0, 4, 16}

	n := 24
	if testing.Short() {
		n = 6
	}
	rng := rand.New(rand.NewSource(0x77a57e11))
	for i := 0; i < n; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		wl := workloads[rng.Intn(len(workloads))]
		src := sources[rng.Intn(len(sources))]
		// maxline must stay within the DQ capacity (default 8).
		dq := dqcaps[rng.Intn(len(dqcaps))]
		cap := dq
		if cap == 0 {
			cap = 8
		}
		opts := Options{Maxline: 1 + rng.Intn(cap), DQCap: dq}
		checkTierPair(t, sim.DefaultConfig(), kind, opts, wl, 1, src)
	}
}

// FuzzTierEquivalence drives checkTierPair over fuzzer-chosen cells:
// design kind, a small kernel, trace source, maxline, DQ capacity, and
// the capacitor — the 1 µF default or the outage-heavy 344 nF, which
// shortens every on-period and puts the window bounds under pressure.
func FuzzTierEquivalence(f *testing.F) {
	kinds := AllKinds()
	workloads := []string{"sha", "adpcmencode", "qsort", "dijkstra"}
	sources := []power.Source{power.None, power.Trace1, power.Trace2, power.Trace3, power.Solar, power.Thermal}
	dqcaps := []int{0, 4, 16}
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), false)
	f.Add(uint8(len(kinds)-1), uint8(1), uint8(1), uint8(5), uint8(2), true)
	f.Add(uint8(3), uint8(2), uint8(3), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, kind, wl, src, maxline, dq uint8, smallCap bool) {
		opts := Options{DQCap: dqcaps[int(dq)%len(dqcaps)]}
		// maxline must stay within the DQ capacity (default 8).
		limit := opts.DQCap
		if limit == 0 {
			limit = 8
		}
		opts.Maxline = 1 + int(maxline)%limit
		base := sim.DefaultConfig()
		if smallCap {
			base.CapacitorF = 344e-9
		}
		checkTierPair(t, base, kinds[int(kind)%len(kinds)], opts,
			workloads[int(wl)%len(workloads)], 1, sources[int(src)%len(sources)])
	})
}

// TestFastTierRecorderInertFaultPlanExact pins the eligibility rule of
// DESIGN.md §16.1. A fast-tier configuration carrying a FaultPlan runs
// the exact policy, bit for bit — even a plan that never crashes, since
// the hook alone disqualifies the run. A recorder disqualifies nothing:
// a recorded fast-tier run is bit-identical to the unrecorded one, its
// outage counter agrees with the result, and its voltage gauge, sampled
// at every settle, stays inside the operating range.
func TestFastTierRecorderInertFaultPlanExact(t *testing.T) {
	const kind, wl, src = KindWL, "sha", power.Trace3
	run := func(cfg sim.Config) (sim.Result, map[string]string) {
		t.Helper()
		res, err := Run(kind, Options{}, wl, 1, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, FlattenResult(res)
	}
	_, exact := run(sim.DefaultConfig())
	if exact["Outages"] == "0" {
		t.Fatal("cell has no outages; the rule is only interesting across power failures")
	}
	faulted := sim.DefaultConfig()
	faulted.Tier = sim.TierFast
	faulted.FaultPlan = nopFaultPlan{}
	if _, got := run(faulted); !maps.Equal(got, exact) {
		t.Error("TierFast with a fault plan is not bit-identical to TierExact")
	}

	fastCfg := sim.DefaultConfig()
	fastCfg.Tier = sim.TierFast
	_, fast := run(fastCfg)
	if maps.Equal(fast, exact) {
		t.Fatal("the fast tier reproduced the exact tier bit for bit; the cell cannot tell the policies apart")
	}
	rec := obs.NewRecorder(obs.RunMeta{Design: string(kind), Workload: wl, Trace: string(src)}, 0)
	observed := fastCfg
	observed.Obs = rec
	res, got := run(observed)
	if !maps.Equal(got, fast) {
		t.Error("a recorder changed the outcome of a TierFast run")
	}

	m := rec.Manifest()
	var outages uint64
	for _, c := range m.Counters {
		if c.Name == "power.outages" {
			outages = c.Value
		}
	}
	if outages != res.Outages {
		t.Errorf("recorded power.outages = %d, result has %d outages", outages, res.Outages)
	}
	cfg := sim.DefaultConfig()
	var volts *obs.GaugeSnap
	for i := range m.Gauges {
		if m.Gauges[i].Name == "energy.capacitor_v" {
			volts = &m.Gauges[i]
		}
	}
	switch {
	case volts == nil || volts.Samples == 0:
		t.Error("the voltage gauge has no samples")
	case volts.Min < cfg.VMin-1e-9 || volts.Max > cfg.VMax:
		t.Errorf("voltage gauge range [%g, %g] V leaves [VMin-1e-9, VMax] = [%g, %g] V",
			volts.Min, volts.Max, cfg.VMin-1e-9, cfg.VMax)
	}
}
