// Package power models ambient energy-harvesting input as power
// traces: piecewise-constant harvested power (watts) over time. The
// paper evaluates with two recorded RF traces (tr.1 home, tr.2
// office), a third RF trace from Mementos (tr.3), and solar/thermal
// traces; those recordings are not available, so this package provides
// deterministic synthetic generators with the same stability ordering.
package power

// Trace is a looping piecewise-constant power signal. Sample i covers
// simulated time [i*Step, (i+1)*Step) picoseconds; after the last
// sample the trace wraps around.
//
// Traces built by this package (Synthesize*, Get) carry a prefix-sum
// index that makes Integrate O(1) for windows spanning many segments
// and lets TimeToHarvest binary-search whole outages instead of
// stepping segment by segment. Hand-assembled Trace literals work
// without the index (the sequential reference paths run instead); call
// Reindex after populating or mutating Samples to build it. An indexed
// trace must not have Samples mutated afterwards — the built-in traces
// are shared read-only across concurrent simulations.
type Trace struct {
	Name    string
	Step    int64     // ps per sample
	Samples []float64 // watts

	// Index built by Reindex: cum[i] is the energy (J) of full segments
	// [0, i), loopE is one whole loop's energy, mean the cached Mean.
	cum   []float64
	loopE float64
	mean  float64
}

// Reindex (re)builds the O(1) integration index from Samples. It must
// be called again after any mutation of Samples; the constructors in
// this package call it automatically.
func (t *Trace) Reindex() {
	const psPerSec = 1e12
	n := len(t.Samples)
	cum := make([]float64, n+1)
	for i, p := range t.Samples {
		cum[i+1] = cum[i] + p*float64(t.Step)/psPerSec
	}
	t.cum = cum
	t.loopE = cum[n]
	// Same accumulation order as the unindexed Mean so the cached value
	// is bit-identical.
	s := 0.0
	for _, p := range t.Samples {
		s += p
	}
	t.mean = 0
	if n > 0 {
		t.mean = s / float64(n)
	}
}

// indexed reports whether the prefix-sum index matches Samples.
func (t *Trace) indexed() bool { return len(t.cum) == len(t.Samples)+1 }

// Duration returns the length of one loop in picoseconds.
func (t *Trace) Duration() int64 { return t.Step * int64(len(t.Samples)) }

// At returns the harvested power at absolute time ps.
func (t *Trace) At(ps int64) float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	i := (ps / t.Step) % int64(len(t.Samples))
	return t.Samples[i]
}

// Mean returns the average power over one loop (cached on indexed
// traces).
func (t *Trace) Mean() float64 {
	if t.indexed() {
		return t.mean
	}
	if len(t.Samples) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range t.Samples {
		s += p
	}
	return s / float64(len(t.Samples))
}

// Integrate returns the energy (joules) harvested over [from, to) ps.
//
// Windows within one or two segments — every window the simulator's
// per-event loop issues — take the sequential path, whose arithmetic
// is identical to the pre-index implementation, so simulation results
// are bit-identical. Wider windows (outage analysis, tooling) use the
// prefix-sum index: one partial segment on each side plus an O(1)
// full-segment span.
func (t *Trace) Integrate(from, to int64) float64 {
	if to <= from || len(t.Samples) == 0 {
		return 0
	}
	const psPerSec = 1e12
	i0 := from / t.Step
	if to <= (i0+1)*t.Step {
		// Single-segment window — the per-event common case. This is
		// integrateSeq's only iteration inlined (same expression, so
		// bit-identical), reached with one division and no dispatch on
		// the index: the i1 division below, which the indexed dispatch
		// added for every caller, only runs for multi-segment windows.
		return t.Samples[i0%int64(len(t.Samples))] * float64(to-from) / psPerSec
	}
	i1 := (to - 1) / t.Step
	if i1-i0 <= 1 || !t.indexed() {
		return t.integrateSeq(from, to)
	}
	n := int64(len(t.Samples))
	e := t.Samples[i0%n] * float64((i0+1)*t.Step-from) / psPerSec
	e += t.segSum(i1) - t.segSum(i0+1)
	e += t.Samples[i1%n] * float64(to-i1*t.Step) / psPerSec
	return e
}

// integrateSeq is the segment-stepping reference implementation,
// retained verbatim: it serves short windows exactly and anchors the
// equivalence property tests.
func (t *Trace) integrateSeq(from, to int64) float64 {
	const psPerSec = 1e12
	e := 0.0
	for cur := from; cur < to; {
		i := (cur / t.Step) % int64(len(t.Samples))
		segEnd := (cur/t.Step + 1) * t.Step
		if segEnd > to {
			segEnd = to
		}
		e += t.Samples[i] * float64(segEnd-cur) / psPerSec
		cur = segEnd
	}
	return e
}

// segSum returns the indexed energy of full segments [0, k).
func (t *Trace) segSum(k int64) float64 {
	n := int64(len(t.Samples))
	return float64(k/n)*t.loopE + t.cum[k%n]
}

// TimeToHarvest returns the smallest dt (ps) such that integrating the
// trace over [from, from+dt) yields at least joules. It returns ok =
// false if the trace can never supply it (all-zero trace).
//
// On indexed traces a harvest finishing within the first segment — the
// common case for ordinary recharges — reproduces the sequential
// arithmetic exactly; longer outages binary-search the prefix-sum
// index for the finishing segment instead of stepping through every
// segment of the dead zone.
func (t *Trace) TimeToHarvest(from int64, joules float64) (dt int64, ok bool) {
	if joules <= 0 {
		return 0, true
	}
	if t.Mean() <= 0 {
		return 0, false
	}
	if !t.indexed() {
		return t.timeToHarvestSeq(from, joules)
	}
	const psPerSec = 1e12
	n := int64(len(t.Samples))
	i0 := from / t.Step
	p := t.Samples[i0%n]
	head := p * float64((i0+1)*t.Step-from) / psPerSec
	if head >= joules {
		// Same expression as the sequential reference's first segment
		// (acc = 0), so the result is bit-identical.
		frac := joules / p * psPerSec
		return int64(frac) + 1, true
	}
	// g(j) = energy over [from, j*Step) for j > i0. Monotone in j, so
	// the finishing segment is the smallest j with g(j+1) >= joules;
	// find it by doubling then bisection, each probe O(1).
	g := func(j int64) float64 {
		return head + (t.segSum(j) - t.segSum(i0+1))
	}
	span := int64(1)
	for g(i0+1+span) < joules {
		span *= 2
	}
	lo, hi := i0+span/2, i0+span // g(lo+1) < joules (or lo == i0), g(hi+1) >= joules
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g(mid+1) >= joules {
			hi = mid
		} else {
			lo = mid
		}
	}
	j := hi
	// The finishing segment must supply energy; rounding at loop
	// boundaries can in principle land the bisection on a zero-power
	// segment, so skip forward to the next powered one.
	for t.Samples[j%n] == 0 {
		j++
	}
	acc := g(j)
	frac := (joules - acc) / t.Samples[j%n] * psPerSec
	if frac < 0 {
		frac = 0
	}
	return j*t.Step + int64(frac) + 1 - from, true
}

// timeToHarvestSeq is the segment-stepping reference implementation,
// retained for unindexed traces and the equivalence property tests.
func (t *Trace) timeToHarvestSeq(from int64, joules float64) (dt int64, ok bool) {
	const psPerSec = 1e12
	acc := 0.0
	cur := from
	for {
		i := (cur / t.Step) % int64(len(t.Samples))
		segEnd := (cur/t.Step + 1) * t.Step
		p := t.Samples[i]
		segE := p * float64(segEnd-cur) / psPerSec
		if acc+segE >= joules {
			// Finish partway through this segment.
			frac := (joules - acc) / p * psPerSec
			return cur + int64(frac) + 1 - from, true
		}
		acc += segE
		cur = segEnd
	}
}
