package stats

import (
	"fmt"
	"math"
	"strings"
)

// BarChart renders horizontal ASCII bar charts so wlbench output can
// sketch the paper's figures directly in the terminal.
type BarChart struct {
	Title string
	// RefValue draws a reference line label (e.g. the 1.0x baseline);
	// NaN disables it.
	RefValue float64
	rows     []barRow
}

// barWidth is the bar area width in characters.
const barWidth = 40

type barRow struct {
	label string
	value float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title string) *BarChart {
	return &BarChart{Title: title, RefValue: math.NaN()}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.rows = append(c.rows, barRow{label, value})
}

// String renders the chart. Bars scale to the maximum value; the
// reference value, when set and in range, is marked with '|'.
func (c *BarChart) String() string {
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if len(c.rows) == 0 {
		return b.String()
	}
	maxV := 0.0
	labelW := 0
	for _, r := range c.rows {
		if !math.IsNaN(r.value) && r.value > maxV {
			maxV = r.value
		}
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	refCol := -1
	if !math.IsNaN(c.RefValue) && c.RefValue >= 0 && c.RefValue <= maxV {
		refCol = int(math.Round(c.RefValue / maxV * float64(barWidth)))
	}
	for _, r := range c.rows {
		fmt.Fprintf(&b, "  %-*s ", labelW, r.label)
		if math.IsNaN(r.value) {
			b.WriteString(strings.Repeat(" ", barWidth))
			b.WriteString("      -\n")
			continue
		}
		n := min(int(math.Round(r.value/maxV*float64(barWidth))), barWidth)
		for col := 0; col < barWidth; col++ {
			switch {
			case col < n:
				b.WriteByte('#')
			case col == refCol:
				b.WriteByte('|')
			default:
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, " %7.3f\n", r.value)
	}
	return b.String()
}

// sparkRunes are the eight block heights a sparkline cell can take.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a value series as one line of block characters,
// scaled to the series' own min..max — the terminal trend view of the
// run-history store. NaN samples render as spaces; a flat series (or a
// single point) renders at mid height so it reads as "present, not
// moving" rather than empty.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		switch {
		case math.IsNaN(v):
			b.WriteByte(' ')
		case hi <= lo:
			b.WriteRune(sparkRunes[len(sparkRunes)/2])
		default:
			i := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(sparkRunes) {
				i = len(sparkRunes) - 1
			}
			b.WriteRune(sparkRunes[i])
		}
	}
	return b.String()
}
