package runner_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"wlcache/internal/expt"
	"wlcache/internal/fault"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// faultedCell builds a runner cell that executes a real simulation
// with an internal/fault injector armed — the audit subsystem's
// injectors pointed at the runner's own execution path. The cell is
// deliberately not content-addressable (live fault plan), matching how
// expt gates hook-carrying configs.
func faultedCell(kind expt.Kind, wlName string, mode fault.Mode, seed uint64, crashInstrs ...uint64) runner.Cell {
	return runner.Cell{
		ID: fmt.Sprintf("%s/%s/faulted", kind, wlName),
		Run: func(context.Context) (sim.Result, error) {
			inj := fault.NewInjector(mode, seed)
			inj.CrashAtInstrs(crashInstrs...)
			cfg := sim.DefaultConfig()
			cfg.CheckInvariants = true
			cfg.FaultPlan = inj
			return expt.Run(kind, expt.Options{}, wlName, 1, power.None, cfg)
		},
	}
}

// Driving the fault audit's crash injector through the runner: the
// deliberately broken design's durability violation surfaces as a
// typed, cell-attributed error (errors.Is sees sim.ErrCrashConsistency
// through the runner's wrapper), while sound designs under the same
// injection complete and their results ride alongside the failure.
func TestFaultInjectorsAgainstRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cells := []runner.Cell{
		faultedCell(expt.KindWL, "adpcmencode", fault.ModeCrash, 1, 2000, 9000),
		faultedCell(expt.KindBroken, "adpcmencode", fault.ModeCrash, 1, 2000, 9000),
		faultedCell(expt.KindWL, "basicmath", fault.ModeCrash, 2, 5000),
	}
	rep, err := runner.RunCells(context.Background(), runner.Config{Workers: 2, Engine: sim.EngineVersion}, cells)
	if err == nil {
		t.Fatal("broken design survived the crash injector through the runner")
	}
	var ce *runner.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error not cell-attributed: %v", err)
	}
	if ce.Index != 1 || ce.ID != "broken/adpcmencode/faulted" {
		t.Fatalf("failure attributed to wrong cell: index %d, id %s", ce.Index, ce.ID)
	}
	if !errors.Is(err, sim.ErrCrashConsistency) {
		t.Fatalf("durability violation not typed through the wrapper: %v", err)
	}
	// The sound designs' results were not discarded by the failure.
	for _, i := range []int{0, 2} {
		if rep.Results[i].Instructions == 0 || rep.Results[i].Checksum == 0 {
			t.Fatalf("sound cell %d result lost: %+v", i, rep.Results[i])
		}
	}
	if rep.Metrics.Failed != 1 || rep.Metrics.Computed != 2 {
		t.Fatalf("metrics %+v", rep.Metrics)
	}
}
