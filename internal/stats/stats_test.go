package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Gmean(2,8) = %g", g)
	}
	if g := Gmean([]float64{3}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("Gmean(3) = %g", g)
	}
	if !math.IsNaN(Gmean(nil)) {
		t.Fatal("empty gmean must be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive sample accepted")
		}
	}()
	Gmean([]float64{1, 0})
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean must be NaN")
	}
}

// Property: gmean is scale-equivariant and bounded by min/max.
func TestGmeanQuickProperties(t *testing.T) {
	f := func(raw []float64, scaleSeed uint8) bool {
		var xs []float64
		for _, r := range raw {
			v := math.Abs(r)
			if v > 0.001 && v < 1e6 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Gmean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if g < lo*(1-1e-9) || g > hi*(1+1e-9) {
			return false
		}
		k := 1 + float64(scaleSeed%7)
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = k * x
		}
		return math.Abs(Gmean(scaled)-k*g)/(k*g) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("title", "a", "b")
	tb.Add("row1", 1.5, 2.5)
	tb.Add("row2", 3, 4)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if v, ok := tb.Value("row1", "b"); !ok || v != 2.5 {
		t.Fatalf("Value = %g/%v", v, ok)
	}
	if _, ok := tb.Value("row1", "nope"); ok {
		t.Fatal("unknown column found")
	}
	if _, ok := tb.Value("nope", "a"); ok {
		t.Fatal("unknown row found")
	}
	s := tb.String()
	for _, want := range []string{"title", "row1", "row2", "1.500", "4.000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestTableMismatchedRowPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("short row accepted")
		}
	}()
	tb.Add("x", 1)
}

func TestTableGmeanOver(t *testing.T) {
	tb := NewTable("t", "col")
	tb.Add("x", 2)
	tb.Add("y", 8)
	tb.Add("z", 32)
	if g := tb.GmeanOver("col", nil); math.Abs(g-8) > 1e-12 {
		t.Fatalf("GmeanOver all = %g", g)
	}
	if g := tb.GmeanOver("col", []string{"x", "y"}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GmeanOver subset = %g", g)
	}
	if !math.IsNaN(tb.GmeanOver("nope", nil)) {
		t.Fatal("unknown column should yield NaN")
	}
}

func TestTableRendersNaNAsDash(t *testing.T) {
	tb := NewTable("t", "a")
	tb.Add("x", math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Fatal("NaN not rendered as dash")
	}
}

func TestDesignExtraZeroValue(t *testing.T) {
	var e DesignExtra
	if e.Writebacks != 0 || e.Reconfigs != 0 || e.StallTime != 0 {
		t.Fatal("zero value not zero")
	}
}
