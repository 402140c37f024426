package wlcache_test

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// figureGmeans returns the gmean(Total) row of one figure in
// experiments_output.txt, keyed by design column.
func figureGmeans(t *testing.T, output, fig string) map[string]float64 {
	t.Helper()
	f, err := os.Open(output)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var header []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "==== ") {
			in = strings.HasPrefix(line, "==== "+fig+":")
			continue
		}
		if !in {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) > 0 && fields[0] == "benchmark":
			header = fields[1:]
		case len(fields) > 0 && fields[0] == "gmean(Total)" && header != nil:
			if len(fields)-1 != len(header) {
				t.Fatalf("%s: gmean(Total) row %q does not match header %q", fig, line, header)
			}
			row := make(map[string]float64, len(header))
			for i, design := range header {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					t.Fatalf("%s: %v", fig, err)
				}
				row[design] = v
			}
			return row
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s: no gmean(Total) row in %s", fig, output)
	return nil
}

// headlineMeasured returns the numbers of the Measured column of
// EXPERIMENTS.md's headline table, keyed by the row's claim.
func headlineMeasured(t *testing.T, doc string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## Headline results")
	if start < 0 {
		t.Fatalf("%s has no headline table", doc)
	}
	text = text[start:]
	if end := strings.Index(text[1:], "\n## "); end >= 0 {
		text = text[:end+1]
	}
	num := regexp.MustCompile(`(\d+\.\d+)×`)
	rows := make(map[string][]string)
	for _, line := range strings.Split(text, "\n") {
		cols := strings.Split(line, "|")
		// "| claim | paper | measured | verdict |" splits into six.
		if len(cols) != 6 {
			continue
		}
		var nums []string
		for _, m := range num.FindAllStringSubmatch(cols[3], -1) {
			nums = append(nums, m[1])
		}
		rows[strings.TrimSpace(cols[1])] = nums
	}
	return rows
}

// The headline table's Measured column is recomputed from the pinned
// gmean(Total) rows of Figures 4-6, rounded to two decimals, so a drift
// in either file fails the suite.
func TestHeadlineMatchesExperimentsOutput(t *testing.T) {
	figs := map[string]map[string]float64{}
	for _, fig := range []string{"fig4", "fig5", "fig6"} {
		figs[fig] = figureGmeans(t, "experiments_output.txt", fig)
	}
	gmean := func(fig, design string) float64 {
		v, ok := figs[fig][design]
		if !ok {
			t.Fatalf("%s has no %s column", fig, design)
		}
		return v
	}
	const wl = "WL-Cache"
	overTraces := func(design string) []float64 {
		return []float64{gmean("fig5", wl) / gmean("fig5", design), gmean("fig6", wl) / gmean("fig6", design)}
	}
	want := []struct {
		claim  string
		values []float64
	}{
		{"WL-Cache vs NVSRAM(ideal), no power failure", []float64{gmean("fig4", wl)}},
		{"WL-Cache vs NVSRAM(ideal), Trace 1", []float64{gmean("fig5", wl)}},
		{"WL-Cache vs NVSRAM(ideal), Trace 2", []float64{gmean("fig6", wl)}},
		{"WL-Cache vs NVCache-WB under traces", overTraces("NVCache-WB")},
		{"WL-Cache vs VCache-WT under traces", overTraces("VCache-WT")},
		{"WL-Cache vs ReplayCache under traces", overTraces("ReplayCache")},
	}
	got := headlineMeasured(t, "EXPERIMENTS.md")
	checked := 0
	for _, w := range want {
		cells, ok := got[w.claim]
		if !ok {
			t.Errorf("headline table has no row %q", w.claim)
			continue
		}
		var wantCells []string
		for _, v := range w.values {
			wantCells = append(wantCells, fmt.Sprintf("%.2f", v))
		}
		if fmt.Sprint(cells) != fmt.Sprint(wantCells) {
			t.Errorf("%q: Measured column %v, experiments_output.txt gives %v", w.claim, cells, wantCells)
		}
		checked += len(cells)
	}
	if checked != 9 {
		t.Errorf("checked %d headline numbers, want 9", checked)
	}
}
