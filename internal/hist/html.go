// Self-contained HTML trend dashboard: no external assets, one file
// that renders the whole history with per-metric line charts, hover
// tooltips, a drift summary, and a plain-table view for screen
// readers and grep. Colors are design tokens validated for contrast
// and CVD separation; dark mode derives from the same ramp via
// prefers-color-scheme, overridable with data-theme.
package hist

import (
	"fmt"
	"html"
	"math"
	"sort"
	"strings"
)

// chart geometry (CSS pixels).
const (
	chartW   = 264
	chartH   = 72
	chartPad = 6
)

// Dashboard renders the store (and the gate's verdict over it) as a
// standalone HTML page.
func Dashboard(s *Store, rep GateReport) string {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\n")
	b.WriteString("<title>wlcache run history</title>\n<style>\n")
	b.WriteString(dashboardCSS)
	b.WriteString("</style>\n</head>\n<body>\n")

	fmt.Fprintf(&b, "<header><h1>wlcache run history</h1><p class=\"sub\">%d entries · %s</p></header>\n",
		s.Len(), html.EscapeString(s.Path()))

	writeGateSection(&b, rep)

	series := s.SeriesAll()
	groups := groupSeries(series)
	for _, g := range groups {
		fmt.Fprintf(&b, "<section><h2>%s</h2>\n<div class=\"cards\">\n", html.EscapeString(g.title))
		for _, sr := range g.series {
			writeCard(&b, sr)
		}
		b.WriteString("</div>\n</section>\n")
	}

	writeTableView(&b, series)
	b.WriteString(tooltipJS)
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

type seriesGroup struct {
	title  string
	series []Series
}

// groupSeries buckets series by their namespace prefix so the page
// reads each benchmark workload and the manifests as separate
// sections, benchmark workloads first. Manifest metrics are named
// obs.<cell>.<metric>; every other prefix is a bench/ workload, whose
// wlperf/v1 metrics are named <workload>.<metric>.
func groupSeries(series []Series) []seriesGroup {
	byPrefix := make(map[string][]Series)
	var workloads []string
	for _, sr := range series {
		p, _, _ := strings.Cut(sr.Name, ".")
		if p != "obs" && byPrefix[p] == nil {
			workloads = append(workloads, p)
		}
		byPrefix[p] = append(byPrefix[p], sr)
	}
	sort.Strings(workloads)
	var out []seriesGroup
	for _, w := range workloads {
		out = append(out, seriesGroup{"Benchmark (" + w + ")", byPrefix[w]})
	}
	if ms := byPrefix["obs"]; len(ms) > 0 {
		out = append(out, seriesGroup{"Observability manifests (wlobs)", ms})
	}
	return out
}

func writeGateSection(b *strings.Builder, rep GateReport) {
	cls, verdict := "good", "no drift"
	if rep.Regressions > 0 {
		cls = "bad"
		verdict = fmt.Sprintf("%d regression(s)", rep.Regressions)
	}
	fmt.Fprintf(b, "<section class=\"gate\"><h2>Drift gate</h2>"+
		"<p><span class=\"badge %s\">%s</span> %d metric(s) compared, %d skipped (no comparable baseline)</p>\n",
		cls, html.EscapeString(verdict), rep.Compared, rep.Skipped)
	var bad []Finding
	for _, f := range rep.Findings {
		if f.Regressed() {
			bad = append(bad, f)
		}
	}
	if len(bad) > 0 {
		b.WriteString("<table><thead><tr><th scope=\"col\">metric</th><th scope=\"col\">baseline</th>" +
			"<th scope=\"col\">latest</th><th scope=\"col\">delta</th><th scope=\"col\">note</th></tr></thead><tbody>\n")
		for _, f := range bad {
			fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td>"+
				"<td class=\"num delta-bad\">%s</td><td>%s</td></tr>\n",
				html.EscapeString(f.Metric), compactFloat(f.Baseline), compactFloat(f.Latest),
				deltaString(f.Baseline, f.Latest), html.EscapeString(f.Note))
		}
		b.WriteString("</tbody></table>\n")
	}
	b.WriteString("</section>\n")
}

// writeCard renders one metric as a stat-plus-line-chart card. A
// single series needs no legend: the card title names it.
func writeCard(b *strings.Builder, sr Series) {
	last := sr.Points[len(sr.Points)-1]
	first := sr.Points[0]
	unit := ""
	if sr.Unit != "" {
		unit = " <span class=\"unit\">" + html.EscapeString(sr.Unit) + "</span>"
	}
	deltaCls, delta := "delta-flat", "="
	if first.Value != last.Value && first.Value != 0 {
		rel := (last.Value - first.Value) / math.Abs(first.Value)
		delta = fmt.Sprintf("%+.1f%%", 100*rel)
		deltaCls = deltaClass(sr, rel)
	}
	fmt.Fprintf(b, "<article class=\"card\"><h3>%s</h3>"+
		"<p class=\"stat\"><span class=\"val\">%s</span>%s <span class=\"%s\">%s</span></p>\n",
		html.EscapeString(sr.Name), compactFloat(last.Value), unit, deltaCls, delta)
	if len(sr.Points) >= 2 {
		writeChart(b, sr)
	} else {
		b.WriteString("<p class=\"sub\">single run — no trend yet</p>\n")
	}
	b.WriteString("</article>\n")
}

// deltaClass colors a relative change by whether it moved the good
// way. Directionless metrics stay neutral ink.
func deltaClass(sr Series, rel float64) string {
	switch sr.Dir.String() {
	case "lower":
		if rel < 0 {
			return "delta-good"
		}
		return "delta-bad"
	case "higher":
		if rel > 0 {
			return "delta-good"
		}
		return "delta-bad"
	}
	return "delta-flat"
}

// writeChart emits the inline SVG line chart: recessive gridline and
// baseline, a 2px series line, and ≥8px hover targets per point that
// feed the shared tooltip.
func writeChart(b *strings.Builder, sr Series) {
	vals := make([]float64, len(sr.Points))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, p := range sr.Points {
		vals[i] = p.Value
		lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
	}
	if hi == lo {
		hi, lo = hi+1, lo-1 // flat series centers
	}
	x := func(i int) float64 {
		if len(vals) == 1 {
			return chartW / 2
		}
		return chartPad + float64(i)*(chartW-2*chartPad)/float64(len(vals)-1)
	}
	y := func(v float64) float64 {
		return chartH - chartPad - (v-lo)*(chartH-2*chartPad)/(hi-lo)
	}
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"trend of %s over %d runs\">\n",
		chartW, chartH, chartW, chartH, html.EscapeString(sr.Name), len(vals))
	// Recessive horizontal gridline at the vertical midpoint.
	fmt.Fprintf(b, "<line class=\"grid\" x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\"/>\n",
		chartPad, float64(chartH)/2, chartW-chartPad, float64(chartH)/2)
	var pts []string
	for i := range vals {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(i), y(vals[i])))
	}
	fmt.Fprintf(b, "<polyline class=\"series\" points=\"%s\"/>\n", strings.Join(pts, " "))
	for i, p := range sr.Points {
		label := fmt.Sprintf("run %d", p.Seq)
		if p.Label != "" {
			label = p.Label
		}
		// Visible 3px dot, 10px invisible hit target carrying the
		// tooltip payload.
		fmt.Fprintf(b, "<circle class=\"dot\" cx=\"%.1f\" cy=\"%.1f\" r=\"3\"/>\n", x(i), y(vals[i]))
		fmt.Fprintf(b, "<circle class=\"hit\" cx=\"%.1f\" cy=\"%.1f\" r=\"10\" data-tip=\"%s: %s%s\"/>\n",
			x(i), y(vals[i]),
			html.EscapeString(label), compactFloat(vals[i]),
			html.EscapeString(unitSuffix(sr.Unit)))
	}
	b.WriteString("</svg>\n")
}

func unitSuffix(unit string) string {
	if unit == "" {
		return ""
	}
	return " " + unit
}

// writeTableView emits the accessible every-value table.
func writeTableView(b *strings.Builder, series []Series) {
	b.WriteString("<section><h2>All series (table view)</h2>\n<table>\n" +
		"<thead><tr><th scope=\"col\">metric</th><th scope=\"col\">kind</th><th scope=\"col\">dir</th>" +
		"<th scope=\"col\">unit</th><th scope=\"col\">runs</th><th scope=\"col\">values (oldest → newest)</th></tr></thead><tbody>\n")
	for _, sr := range series {
		var vals []string
		for _, p := range sr.Points {
			vals = append(vals, compactFloat(p.Value))
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(sr.Name), sr.Kind, sr.Dir.String(),
			html.EscapeString(sr.Unit), len(sr.Points),
			html.EscapeString(strings.Join(vals, ", ")))
	}
	b.WriteString("</tbody></table>\n</section>\n")
}

// Design tokens: light surface #fcfcfb / ink #0b0b0b, dark surface
// #1a1a19 / ink #ffffff; series-1 blue #2a78d6 (light) / #3987e5
// (dark); status good #0ca30c, critical #d03b3b. Dark mode follows
// the system scheme unless data-theme pins it.
const dashboardCSS = `:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --series: #2a78d6;
  --good: #0ca30c; --bad: #d03b3b; --delta-good: #006300;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --series: #3987e5;
    --delta-good: #0ca30c;
  }
}
:root[data-theme="dark"] {
  --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --series: #3987e5;
  --delta-good: #0ca30c;
}
body { background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif; margin: 1.5rem auto; max-width: 72rem;
  padding: 0 1rem; }
h1 { font-size: 1.3rem; margin: 0; }
h2 { font-size: 1.05rem; border-bottom: 1px solid var(--grid);
  padding-bottom: .25rem; margin-top: 2rem; }
h3 { font-size: .8rem; font-weight: 600; color: var(--ink-2); margin: 0;
  overflow-wrap: anywhere; }
.sub { color: var(--muted); margin: .2rem 0 0; }
.cards { display: grid; gap: .75rem;
  grid-template-columns: repeat(auto-fill, minmax(280px, 1fr)); }
.card { border: 1px solid var(--grid); border-radius: 6px; padding: .6rem .75rem; }
.stat { margin: .3rem 0; }
.stat .val { font-size: 1.25rem; font-weight: 600;
  font-variant-numeric: tabular-nums; }
.unit { color: var(--muted); font-size: .8rem; }
.delta-good { color: var(--delta-good); font-variant-numeric: tabular-nums; }
.delta-bad { color: var(--bad); font-variant-numeric: tabular-nums; }
.delta-flat { color: var(--muted); font-variant-numeric: tabular-nums; }
.badge { border-radius: 4px; padding: .1rem .45rem; font-weight: 600;
  color: #fff; }
.badge.good { background: var(--good); }
.badge.bad { background: var(--bad); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .series { fill: none; stroke: var(--series); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
svg .dot { fill: var(--series); }
svg .hit { fill: transparent; cursor: crosshair; }
table { border-collapse: collapse; width: 100%; font-size: .8rem; }
th, td { text-align: left; padding: .25rem .5rem;
  border-bottom: 1px solid var(--grid); overflow-wrap: anywhere; }
th { color: var(--ink-2); }
td.num { font-variant-numeric: tabular-nums; }
#tip { position: fixed; pointer-events: none; background: var(--ink);
  color: var(--surface); padding: .2rem .45rem; border-radius: 4px;
  font-size: .75rem; display: none; z-index: 10; }
`

// tooltipJS positions the shared tooltip over whichever hover target
// the pointer is on.
const tooltipJS = `<div id="tip" role="status"></div>
<script>
(function () {
  var tip = document.getElementById('tip');
  document.addEventListener('pointerover', function (e) {
    var t = e.target.closest && e.target.closest('.hit');
    if (!t) { tip.style.display = 'none'; return; }
    tip.textContent = t.getAttribute('data-tip');
    tip.style.display = 'block';
  });
  document.addEventListener('pointermove', function (e) {
    if (tip.style.display === 'none') return;
    tip.style.left = (e.clientX + 12) + 'px';
    tip.style.top = (e.clientY - 28) + 'px';
  });
  document.addEventListener('pointerout', function (e) {
    if (e.target.closest && e.target.closest('.hit')) tip.style.display = 'none';
  });
})();
</script>
`
