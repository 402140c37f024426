package obs

import (
	"math"
	"sort"
)

// Dir declares a metric's good direction of change: for a DirLower
// metric (latencies, stalls, energy) growth is a regression; for a
// DirHigher metric shrinkage is; a DirNone metric (occupancy
// distributions, configuration gauges, the checksum) has no good
// direction. The run-history gate (internal/hist) judges a manifest's
// metrics as exact simulated outcomes, so a DirNone metric there must
// not move at all.
type Dir int8

// The regression directions.
const (
	DirNone Dir = iota
	DirLower
	DirHigher
)

// String returns the manifest encoding of the direction.
func (d Dir) String() string {
	switch d {
	case DirLower:
		return "lower"
	case DirHigher:
		return "higher"
	}
	return "none"
}

// DirFrom parses the manifest encoding of a direction ("lower",
// "higher", anything else = none).
func DirFrom(s string) Dir {
	switch s {
	case "lower":
		return DirLower
	case "higher":
		return DirHigher
	}
	return DirNone
}

// Counter is a monotonically increasing event tally. All methods are
// nil-safe so disabled instrumentation costs one nil check.
type Counter struct {
	name string
	dir  Dir
	n    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.n += d
}

// Value returns the current tally (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge tracks the last, extreme and mean values of a sampled
// quantity (capacitor voltage, maxline). Nil-safe like Counter.
type Gauge struct {
	name string
	dir  Dir
	n    uint64
	last float64
	min  float64
	max  float64
	sum  float64
}

// Set records one sample.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.n++
	g.last = v
	g.sum += v
}

// Last returns the most recent sample (0 on nil or empty).
func (g *Gauge) Last() float64 {
	if g == nil {
		return 0
	}
	return g.last
}

// Mean returns the arithmetic mean of all samples (NaN when empty).
func (g *Gauge) Mean() float64 {
	if g == nil || g.n == 0 {
		return math.NaN()
	}
	return g.sum / float64(g.n)
}

// histBuckets is the fixed bucket count: bucket 0 holds values < 1,
// bucket i holds [2^(i-1), 2^i), and the last bucket absorbs the tail.
const histBuckets = 64

// Histogram is a log2-bucketed distribution with exact count, sum,
// min and max. Values are expected in "natural integer units" — ps
// for times, pJ for energy, entries for occupancies — so bucket 0
// (values below 1) is the true zero bucket. Nil-safe like Counter.
type Histogram struct {
	name    string
	dir     Dir
	count   uint64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	i := int(math.Floor(math.Log2(v))) + 1
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketUpper returns the exclusive upper bound of bucket i (1 for
// bucket 0, +Inf for the last).
func BucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return 1
	case i >= histBuckets-1:
		return math.Inf(1)
	}
	return math.Pow(2, float64(i))
}

// Observe records one value. Negative values clamp to zero (durations
// and occupancies are never negative; a clamp beats a panic on an
// instrumentation path).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns sum/count (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets: it
// finds the bucket holding the q-th observation and returns that
// bucket's geometric midpoint (its lower bound for bucket 0, the max
// for the open tail). Single-sample histograms return that sample.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return math.NaN()
	}
	if h.count == 1 {
		return h.min
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen < rank {
			continue
		}
		switch {
		case i == 0:
			return 0
		case i == histBuckets-1:
			return h.max
		}
		lo := math.Pow(2, float64(i-1))
		mid := lo * math.Sqrt2
		if mid > h.max {
			mid = h.max
		}
		if mid < h.min {
			mid = h.min
		}
		return mid
	}
	return h.max
}

// Registry holds one run's metrics. It is not safe for concurrent
// use: the simulator is single-goroutine, and so is a Recorder.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it with direction d on
// first use. Nil registries return nil (disabled instrumentation).
func (r *Registry) Counter(name string, d Dir) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, dir: d}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, d Dir) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, dir: d}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, d Dir) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, dir: d}
		r.hists[name] = h
	}
	return h
}

// counterNames returns the registered counter names, sorted.
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) gaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) histNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
