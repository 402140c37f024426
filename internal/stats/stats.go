// Package stats provides the aggregation and rendering helpers shared
// by the experiment harness: geometric means, per-design extra
// counters, and fixed-width table/series formatting matching the rows
// the paper reports.
package stats

import (
	"fmt"
	"math"
	"slices"
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
	labels  []string
	vals    [][]float64
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
	t.labels = append(t.labels, label)
	t.vals = append(t.vals, vals)
}

// Labels returns the row labels in order.
func (t *Table) Labels() []string { return slices.Clone(t.labels) }

// Value returns the cell for (label, column); ok=false if absent.
func (t *Table) Value(label, column string) (float64, bool) {
	r, c := slices.Index(t.labels, label), slices.Index(t.Columns, column)
	if r < 0 || c < 0 {
		return 0, false
	}
	return t.vals[r][c], true
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cells := make([][]string, len(t.vals))
	for i, vals := range t.vals {
		for _, v := range vals {
			cells[i] = append(cells[i], formatCell(v))
		}
	}
	return render(t.Title, "benchmark", t.Columns, t.labels, cells)
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

// TextTable renders labelled rows of string cells with the same fixed
// layout as Table; used for pass/fail grids (the fault audit) where
// cells are verdicts, not numbers.
type TextTable struct {
	Title   string
	Columns []string
	// Label heads the row-label column; "" renders the historical
	// default "design".
	Label  string
	labels []string
	cells  [][]string
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
	t.labels = append(t.labels, label)
	t.cells = append(t.cells, cells)
}

// Rows returns the number of data rows.
func (t *TextTable) Rows() int { return len(t.labels) }

// Cell returns the cell for (label, column); ok=false if absent.
func (t *TextTable) Cell(label, column string) (string, bool) {
	r, c := slices.Index(t.labels, label), slices.Index(t.Columns, column)
	if r < 0 || c < 0 {
		return "", false
	}
	return t.cells[r][c], true
}

// String renders the table with aligned columns.
func (t *TextTable) String() string {
	head := t.Label
	if head == "" {
		head = "design"
	}
	return render(t.Title, head, t.Columns, t.labels, t.cells)
}

// render is the one table layout: the title line, a header of head and
// the column names, a dashed rule, then one row per label. The label
// column is as wide as its widest entry; every other column is as wide
// as the widest header or cell plus two spaces, and at least 10.
func render(title, head string, columns, labels []string, cells [][]string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := len(head)
	for _, l := range labels {
		labelW = max(labelW, len(l))
	}
	colW := 10
	for _, c := range columns {
		colW = max(colW, len(c)+2)
	}
	for _, row := range cells {
		for _, c := range row {
			colW = max(colW, len(c)+2)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, head)
	for _, c := range columns {
		fmt.Fprintf(&b, "%*s", colW, c)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", labelW+2+colW*len(columns)))
	b.WriteByte('\n')
	for i, l := range labels {
		fmt.Fprintf(&b, "%-*s", labelW+2, l)
		for _, c := range cells[i] {
			fmt.Fprintf(&b, "%*s", colW, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
