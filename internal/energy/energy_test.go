package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCapacitorBasics(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	if c.Voltage() != 3.5 {
		t.Fatalf("initial voltage %g", c.Voltage())
	}
	if c.Capacitance() != 1e-6 || c.VMin() != 2.8 || c.VMax() != 3.5 {
		t.Fatal("accessors wrong")
	}
	wantE := 0.5 * 1e-6 * 3.5 * 3.5
	if math.Abs(c.Energy()-wantE) > 1e-12 {
		t.Fatalf("energy %g, want %g", c.Energy(), wantE)
	}
}

func TestCapacitorDrawHarvestRoundTrip(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	before := c.Energy()
	c.Step(0, 1e-6, 0, false)
	if math.Abs(before-c.Energy()-1e-6) > 1e-12 {
		t.Fatalf("draw accounting off: %g", before-c.Energy())
	}
	c.Step(1e-6, 0, 0, false)
	if math.Abs(c.Energy()-before) > 1e-12 {
		t.Fatal("harvest did not restore energy")
	}
}

func TestCapacitorClampsAtVMax(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	c.Step(1, 0, 0, false) // way too much harvest
	if c.Voltage() > 3.5 {
		t.Fatalf("voltage %g exceeds VMax", c.Voltage())
	}
}

func TestCapacitorDrawBelowZeroClamps(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	c.Step(0, 1, 0, false) // more than stored
	if c.Voltage() != 0 {
		t.Fatalf("voltage %g, want 0", c.Voltage())
	}
}

func TestCapacitorEnergyAbove(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	got := c.EnergyAbove(2.8)
	want := 0.5 * 1e-6 * (3.5*3.5 - 2.8*2.8)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EnergyAbove = %g, want %g", got, want)
	}
	c.SetVoltage(2.0)
	if c.EnergyAbove(2.8) != 0 {
		t.Fatal("EnergyAbove below floor must be 0")
	}
}

func TestCapacitorPanicsOnNegative(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	for _, f := range []func(){func() { c.Step(0, -1, 0, false) }, func() { c.Step(-1, 0, 0, false) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative energy accepted")
				}
			}()
			f()
		}()
	}
}

func TestNewCapacitorValidates(t *testing.T) {
	for _, args := range [][3]float64{{0, 2.8, 3.5}, {1e-6, -1, 3.5}, {1e-6, 3.5, 3.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid capacitor %v accepted", args)
				}
			}()
			NewCapacitor(args[0], args[1], args[2])
		}()
	}
}

func TestVbackupFor(t *testing.T) {
	// A zero reserve keeps Vbackup at VMin.
	if v := VbackupFor(1e-6, 2.8, 3.5, 0); v != 2.8 {
		t.Fatalf("zero reserve Vbackup = %g", v)
	}
	// The reserved band must actually hold the requested energy.
	reserve := 600e-9
	vb := VbackupFor(1e-6, 2.8, 3.5, reserve)
	band := 0.5 * 1e-6 * (vb*vb - 2.8*2.8)
	if band < reserve-1e-12 {
		t.Fatalf("band %g < reserve %g", band, reserve)
	}
	// Clamped at VMax for absurd reserves.
	if v := VbackupFor(1e-6, 2.8, 3.5, 1); v != 3.5 {
		t.Fatalf("clamp failed: %g", v)
	}
}

func TestBreakdownTotalAndAdd(t *testing.T) {
	a := Breakdown{CacheRead: 1, CacheWrite: 2, MemRead: 3, MemWrite: 4, Compute: 5, Checkpoint: 6, Restore: 7, Leak: 8}
	if a.Total() != 36 {
		t.Fatalf("Total = %g", a.Total())
	}
	var b Breakdown
	b.Add(&a)
	b.Add(&a)
	if b.Total() != 72 {
		t.Fatalf("Add total = %g", b.Total())
	}
	if b.MemWrite != 8 || b.Leak != 16 {
		t.Fatal("fields not accumulated")
	}
}

func TestDefaultJITCosts(t *testing.T) {
	j := DefaultJITCosts()
	if j.RegCheckpointTime <= 0 || j.RestoreTime <= 0 || j.BaseReserve <= 0 {
		t.Fatal("JIT defaults must be positive")
	}
	if j.RestoreTime < j.RegCheckpointTime {
		t.Fatal("wake-up should cost at least as much as backup (NVP literature)")
	}
}

// Property: a draw step then a harvest step of the same amount is an
// identity (when not clamped), and voltage never goes negative or above
// VMax.
func TestCapacitorQuickConservation(t *testing.T) {
	f := func(steps []float64) bool {
		c := NewCapacitor(1e-6, 2.8, 3.5)
		c.SetVoltage(3.2)
		for _, s := range steps {
			e := math.Mod(math.Abs(s), 1e-7)
			if math.IsNaN(e) {
				continue
			}
			before := c.Energy()
			c.Step(0, e, 0, false)
			if c.Voltage() > 0 && before-c.Energy() > e+1e-12 {
				return false
			}
			c.Step(e, 0, 0, false)
			if c.Voltage() < 0 || c.Voltage() > 3.5+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepGuardUnderVoltage(t *testing.T) {
	c := NewCapacitor(1e-6, 2.8, 3.5)
	// A small draw keeps the voltage above the floor.
	if !c.Step(0, 1e-7, 2.8, true) {
		t.Fatalf("legitimate draw flagged at %g V", c.Voltage())
	}
	// Draining to the floor and drawing more must trip the guard.
	c.SetVoltage(2.8)
	if c.Step(0, 1e-7, 2.8, true) {
		t.Fatal("under-voltage draw not flagged")
	}
	// The draw still happened: the guard reports, it does not veto.
	if c.Voltage() >= 2.8 {
		t.Fatalf("voltage %g not drawn down", c.Voltage())
	}
	// An unguarded step (the checkpoint window) never reports.
	if !c.Step(0, 1e-7, 2.8, false) {
		t.Fatal("unguarded step reported a floor crossing")
	}
	// The caller's error carries the typed sentinel.
	if err := c.UnderVoltageError(1e-7, 2.8); !errors.Is(err, ErrUnderVoltage) {
		t.Fatalf("error %v does not wrap ErrUnderVoltage", err)
	}
}
