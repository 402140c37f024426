package obs

import (
	"fmt"
	"strings"

	"wlcache/internal/stats"
)

// Summarize renders a manifest for humans: the event tally, the
// counters and gauges, a quantile table over every histogram, and a
// bar chart of the DirtyQueue occupancy distribution (the paper's
// waterline claim, readable at a glance).
func Summarize(m Manifest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", m.Key())
	fmt.Fprintf(&b, "events recorded %d (ring dropped %d)\n\n", m.Events, m.EventsDropped)

	if len(m.Counters) > 0 {
		t := stats.NewTextTable("counters", "value", "dir")
		for _, c := range m.Counters {
			t.Add(c.Name, fmt.Sprintf("%d", c.Value), c.Dir)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}

	if len(m.Gauges) > 0 {
		t := stats.NewTable("gauges", "last", "min", "max", "mean")
		for _, g := range m.Gauges {
			if g.Samples == 0 {
				continue
			}
			t.Add(g.Name, g.Last, g.Min, g.Max, g.Mean)
		}
		if len(t.Labels()) > 0 {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}

	if len(m.Histograms) > 0 {
		t := stats.NewTable("histograms", "count", "mean", "p50", "p99", "max")
		for _, h := range m.Histograms {
			if h.Count == 0 {
				continue
			}
			t.Add(h.Name, float64(h.Count), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)
		}
		if len(t.Labels()) > 0 {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}

	for _, h := range m.Histograms {
		if h.Name != "dq.occupancy" || h.Count == 0 {
			continue
		}
		c := stats.NewBarChart("DirtyQueue occupancy distribution (samples per bucket)")
		for _, bk := range h.Buckets {
			c.Add(bucketLabel(bk.Upper), float64(bk.Count))
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// bucketLabel renders one bucket's value range.
func bucketLabel(upper float64) string {
	switch {
	case upper == 1:
		return "0"
	case upper == 0:
		return ">= 2^62"
	case upper == 2:
		return "1"
	}
	return fmt.Sprintf("%.0f-%.0f", upper/2, upper-1)
}
