// Package stats provides the aggregation and rendering helpers shared
// by the experiment harness: geometric means, per-design extra
// counters, and fixed-width table/series formatting matching the rows
// the paper reports.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Gmean returns the geometric mean of xs. It panics on non-positive
// inputs (speedups and times are always positive) and returns NaN for
// an empty slice.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: non-positive sample %g in gmean", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (NaN for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// DesignExtra carries design-specific counters surfaced in §6.6: the
// optional Design.ExtraStats interface returns one.
type DesignExtra struct {
	Writebacks      uint64 // asynchronous write-backs issued
	Stalls          uint64 // stores stalled on maxline
	StallTime       int64  // ps spent stalled
	Reconfigs       int    // adaptive threshold changes
	MaxlineNow      int    // current maxline
	WaterlineNow    int    // current waterline
	CheckpointLines uint64 // dirty lines flushed by JIT checkpoints
	DirtyPeak       int    // maximum simultaneous dirty lines observed
	RedundantDQ     uint64 // redundant DirtyQueue insertions (§5.3)
	StaleDQSkips    uint64 // stale DirtyQueue entries skipped (§5.4)
	DroppedACKs     uint64 // write-back ACKs lost to fault injection
}

// Table renders labelled rows of float columns with a fixed layout.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label string
	vals  []float64
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row. The number of values must match the columns.
func (t *Table) Add(label string, vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row %q has %d values, want %d", label, len(vals), len(t.Columns)))
	}
	t.rows = append(t.rows, tableRow{label, vals})
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the cell for (label, column); ok=false if absent.
func (t *Table) Value(label, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.rows {
		if r.label == label {
			return r.vals[ci], true
		}
	}
	return 0, false
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	labelW := len("benchmark")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := 10
	for _, c := range t.Columns {
		if len(c)+2 > colW {
			colW = len(c) + 2
		}
	}
	for _, r := range t.rows {
		for _, v := range r.vals {
			if len(formatCell(v))+2 > colW {
				colW = len(formatCell(v)) + 2
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW, c)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", labelW+2+colW*len(t.Columns)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for _, v := range r.vals {
			fmt.Fprintf(&b, "%*s", colW, formatCell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && (math.Abs(v) < 0.001 || math.Abs(v) >= 1e6):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// GmeanOver computes the geometric mean of a column over a subset of
// row labels (all rows when labels is nil).
func (t *Table) GmeanOver(column string, labels []string) float64 {
	want := map[string]bool{}
	for _, l := range labels {
		want[l] = true
	}
	var xs []float64
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return math.NaN()
	}
	for _, r := range t.rows {
		if labels == nil || want[r.label] {
			xs = append(xs, r.vals[ci])
		}
	}
	return Gmean(xs)
}

// TextTable renders labelled rows of string cells with the same fixed
// layout as Table; used for pass/fail grids (the fault audit) where
// cells are verdicts, not numbers.
type TextTable struct {
	Title   string
	Columns []string
	// Label heads the row-label column; "" renders the historical
	// default "design".
	Label string
	rows  []textRow
}

type textRow struct {
	label string
	cells []string
}

// NewTextTable creates a text table with the given column headers.
func NewTextTable(title string, columns ...string) *TextTable {
	return &TextTable{Title: title, Columns: columns}
}

// Add appends a row. The number of cells must match the columns.
func (t *TextTable) Add(label string, cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row %q has %d cells, want %d", label, len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, textRow{label, cells})
}

// Rows returns the number of data rows.
func (t *TextTable) Rows() int { return len(t.rows) }

// Cell returns the cell for (label, column); ok=false if absent.
func (t *TextTable) Cell(label, column string) (string, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, r := range t.rows {
		if r.label == label {
			return r.cells[ci], true
		}
	}
	return "", false
}

// String renders the table with aligned columns.
func (t *TextTable) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	head := t.Label
	if head == "" {
		head = "design"
	}
	labelW := len(head)
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := 10
	for _, c := range t.Columns {
		if len(c)+2 > colW {
			colW = len(c) + 2
		}
	}
	for _, r := range t.rows {
		for _, cell := range r.cells {
			if len(cell)+2 > colW {
				colW = len(cell) + 2
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, head)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW, c)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", labelW+2+colW*len(t.Columns)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for _, cell := range r.cells {
			fmt.Fprintf(&b, "%*s", colW, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
