package fault

import (
	"strings"
	"testing"

	"wlcache/internal/expt"
)

// The negative control — a volatile write-back cache that checkpoints
// nothing — must be flagged under plain (fair) crash injection.
func TestAuditFlagsBrokenDesign(t *testing.T) {
	cell, err := AuditOne(expt.KindBroken, "adpcmencode", ModeCrash, 1, 4, 1)
	if err != nil {
		t.Fatalf("AuditOne: %v", err)
	}
	if cell.Pass() {
		t.Fatalf("broken design passed the crash audit: %+v", cell)
	}
	if cell.Outcome != OutcomeDetected && cell.Outcome != OutcomeCorrupt {
		t.Fatalf("unexpected outcome %q (%s)", cell.Outcome, cell.Detail)
	}
}

// WL-Cache must pass every mode: full recovery under the fair modes,
// and at worst *detected* damage under the unfair ones.
func TestAuditPassesWLCache(t *testing.T) {
	for _, mode := range Modes() {
		cell, err := AuditOne(expt.KindWL, "adpcmencode", mode, 1, 4, 1)
		if err != nil {
			t.Fatalf("AuditOne(%s): %v", mode, err)
		}
		if !cell.Pass() {
			t.Errorf("wl failed mode %s: outcome %s (%s)", mode, cell.Outcome, cell.Detail)
		}
		if cell.Crashes == 0 {
			t.Errorf("mode %s fired no crashes", mode)
		}
		if mode.Fair() && cell.Outcome != OutcomeOK {
			t.Errorf("fair mode %s did not fully recover: %s (%s)", mode, cell.Outcome, cell.Detail)
		}
	}
}

// A small two-design matrix exercises Audit end to end: the report
// must pass the sound design and fail the broken one, and the table
// must carry one row per design.
func TestAuditMatrixDifferential(t *testing.T) {
	m := Matrix{
		Designs:   []expt.Kind{expt.KindWLFixed, expt.KindBroken},
		Workloads: []string{"adpcmencode"},
		Modes:     []Mode{ModeCrash, ModeTornCkpt},
		Seeds:     []uint64{1, 2},
		Points:    3,
		Scale:     1,
	}
	rep, err := Audit(m)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if n := len(rep.Cells); n != 2*1*2*2 {
		t.Fatalf("got %d cells, want 8", n)
	}
	if !rep.DesignPass("wl-fixed") {
		t.Errorf("wl-fixed failed: %+v", rep.Failures())
	}
	if rep.DesignPass("broken") {
		t.Error("broken design passed the audit")
	}
	tab := rep.Table()
	if _, ok := tab.Cell("broken", "verdict"); !ok {
		t.Fatal("table missing broken verdict cell")
	}
	if v, _ := tab.Cell("broken", "verdict"); v != "FAIL" {
		t.Errorf("broken verdict %q, want FAIL", v)
	}
	if v, _ := tab.Cell("wl-fixed", "verdict"); v != "PASS" {
		t.Errorf("wl-fixed verdict %q, want PASS", v)
	}
}

// DefaultMatrix must sweep every registered design (the differential
// audit is only meaningful over the full registry) with at least
// three seeds.
func TestDefaultMatrixShape(t *testing.T) {
	m := DefaultMatrix()
	if len(m.Designs) != len(expt.AllKinds()) {
		t.Fatalf("matrix sweeps %d designs, registry has %d", len(m.Designs), len(expt.AllKinds()))
	}
	found := false
	for _, k := range m.Designs {
		if k == expt.KindBroken {
			found = true
		}
	}
	if !found {
		t.Fatal("matrix omits the broken negative control")
	}
	if len(m.Seeds) < 3 {
		t.Fatalf("matrix has %d seeds, want >= 3", len(m.Seeds))
	}
	if len(m.Modes) != len(Modes()) {
		t.Fatalf("matrix has %d modes, want %d", len(m.Modes), len(Modes()))
	}
}

// An unknown design kind or workload is an error, never a panic: every
// audited run goes through expt.Run, which validates both names.
func TestAuditRejectsUnknownNames(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("audit panicked: %v", r)
		}
	}()
	for _, tc := range []struct {
		kind expt.Kind
		wl   string
		want string
	}{
		{"bogus", "adpcmencode", `unknown design kind "bogus"`},
		{expt.KindWL, "nope", `unknown workload "nope"`},
	} {
		if _, err := AuditOne(tc.kind, tc.wl, ModeCrash, 1, 2, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("AuditOne(%s, %s): err = %v, want %q", tc.kind, tc.wl, err, tc.want)
		}
		m := Matrix{Designs: []expt.Kind{tc.kind}, Workloads: []string{tc.wl}, Modes: []Mode{ModeCrash}, Seeds: []uint64{1}}
		if _, err := Audit(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Audit(%s, %s): err = %v, want %q", tc.kind, tc.wl, err, tc.want)
		}
	}
}
