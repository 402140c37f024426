package power

// Cursor integrates a trace over a stream of mostly-advancing windows,
// caching the segment the last window ended in. The simulator issues
// one Integrate per event, and an event window (a few ns) is five
// orders of magnitude shorter than a trace segment (100 us), so almost
// every call lands in the cached segment and costs one multiply —
// no divisions, no modulo.
//
// Results are bit-identical to the segment-stepping sequential
// reference (integrateSeq in the package tests) for every window: the
// cursor walks segments with the same per-segment expression in the
// same order. Windows before the cached segment (time jumps after an
// outage) simply reseek.
type Cursor struct {
	t        *Trace
	segStart int64
	segEnd   int64
	p        float64
	// The cached segment is seg = loop*len(Samples) + sample.
	seg, loop, sample int64
}

// NewCursor returns a cursor over t, positioned at time zero.
func NewCursor(t *Trace) *Cursor {
	c := &Cursor{t: t}
	if len(t.Samples) > 0 {
		c.seek(0)
	}
	return c
}

// seek caches the segment containing time ps.
func (c *Cursor) seek(ps int64) {
	n := int64(len(c.t.Samples))
	c.seg = ps / c.t.Step
	c.loop, c.sample = c.seg/n, c.seg%n
	c.segStart = c.seg * c.t.Step
	c.segEnd = c.segStart + c.t.Step
	c.p = c.t.Samples[c.sample]
}

// next moves the cache to the segment after the cached one.
func (c *Cursor) next() {
	c.seg++
	if c.sample++; c.sample == int64(len(c.t.Samples)) {
		c.loop, c.sample = c.loop+1, 0
	}
	c.segStart = c.segEnd
	c.segEnd += c.t.Step
	c.p = c.t.Samples[c.sample]
}

// Integrate returns the energy (joules) harvested over [from, to).
func (c *Cursor) Integrate(from, to int64) float64 {
	if to <= from || len(c.t.Samples) == 0 {
		return 0
	}
	const psPerSec = 1e12
	if from < c.segStart || from >= c.segEnd {
		c.seek(from)
	}
	if to <= c.segEnd {
		return c.p * float64(to-from) / psPerSec
	}
	e := c.p * float64(c.segEnd-from) / psPerSec
	for {
		cur := c.segEnd
		c.next()
		if to <= c.segEnd {
			e += c.p * float64(to-cur) / psPerSec
			return e
		}
		e += c.p * float64(c.segEnd-cur) / psPerSec
	}
}

// TimeToHarvest answers Trace.TimeToHarvest(from, joules). When from
// lies in the cached segment the search starts there, so it divides
// only on probes more than one loop ahead; otherwise it first moves
// the cache to from's segment, as Integrate would.
func (c *Cursor) TimeToHarvest(from int64, joules float64) (dt int64, ok bool) {
	t := c.t
	if joules <= 0 {
		return 0, true
	}
	if t.Mean() <= 0 {
		return 0, false
	}
	if !t.indexed() {
		return t.timeToHarvestSeq(from, joules)
	}
	if from < c.segStart || from >= c.segEnd {
		c.seek(from)
	}
	return t.harvestFrom(from, c.seg, c.loop, c.sample, joules), true
}
