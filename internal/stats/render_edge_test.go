package stats

import (
	"math"
	"strings"
	"testing"
)

// Empty containers must render their header (or nothing) without
// panicking — callers feed them straight from possibly-empty series.
func TestEmptyRendering(t *testing.T) {
	if got := NewTable("empty", "a", "b").String(); !strings.Contains(got, "benchmark") {
		t.Errorf("empty Table: %q", got)
	}
	if got := NewTextTable("empty", "a").String(); !strings.Contains(got, "design") {
		t.Errorf("empty TextTable: %q", got)
	}
	if got := NewBarChart("empty").String(); got != "empty\n" {
		t.Errorf("empty BarChart: %q", got)
	}
	if got := NewBarChart("").String(); got != "" {
		t.Errorf("empty untitled BarChart: %q", got)
	}
}

// NaN cells render as "-" in tables and as a bar-less row in charts.
func TestNaNRendering(t *testing.T) {
	tb := NewTable("", "v")
	tb.Add("x", math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Errorf("NaN cell not dashed:\n%s", tb.String())
	}

	c := NewBarChart("t")
	c.Add("nan", math.NaN())
	c.Add("one", 1)
	out := c.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "nan") && strings.Contains(line, "#") {
			t.Errorf("NaN row drew a bar: %q", line)
		}
	}
}

// A single-row chart fills the full 40-column bar width (it is its own
// maximum).
func TestSingleRowChartFillsWidth(t *testing.T) {
	c := NewBarChart("t")
	c.Add("only", 42)
	if !strings.Contains(c.String(), strings.Repeat("#", 40)) {
		t.Errorf("single bar not full width:\n%s", c.String())
	}
}

// All-zero charts must not divide by zero.
func TestAllZeroChart(t *testing.T) {
	c := NewBarChart("t")
	c.Add("a", 0)
	c.Add("b", 0)
	if strings.Contains(c.String(), "#") {
		t.Errorf("zero rows drew bars:\n%s", c.String())
	}
}

// Mixed-width values must never fuse into one token: every cell keeps
// at least one space of separation and all lines stay equally long.
func TestTableMixedWidthAlignment(t *testing.T) {
	tb := NewTable("", "narrow", "wide")
	tb.Add("r1", 1, 556928.123)
	tb.Add("row-with-a-long-label", 123456.789, 0.001)
	out := tb.String()
	if strings.Contains(out, "556928.123123456.789") || strings.Contains(out, "0.001556928") {
		t.Fatalf("cells fused:\n%s", out)
	}
	checkEqualLineWidths(t, out)

	tt := NewTextTable("", "a", "b")
	tt.Add("x", "short", "a-very-wide-verdict-cell")
	tt.Add("much-longer-label", "y", "z")
	checkEqualLineWidths(t, tt.String())
}

// checkEqualLineWidths asserts every header/data row of a rendered
// table has the same width (the definition of aligned columns).
func checkEqualLineWidths(t *testing.T, out string) {
	t.Helper()
	want := -1
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "-") {
			continue // title or separator
		}
		if want < 0 {
			want = len(line)
			continue
		}
		if len(line) != want {
			t.Fatalf("line width %d != header width %d: %q\n%s", len(line), want, line, out)
		}
	}
}
