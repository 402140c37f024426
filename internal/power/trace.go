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
// index that lets TimeToHarvest binary-search whole outages instead of
// stepping segment by segment. Hand-assembled Trace literals work
// without the index (the sequential reference path runs instead); call
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

// Reindex (re)builds the prefix-sum index from Samples. It must
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
	c := Cursor{t: t} // caches no segment, so the search seeks from
	return c.TimeToHarvest(from, joules)
}

// harvestFrom is the indexed search behind Trace.TimeToHarvest and
// Cursor.TimeToHarvest. from lies in segment i0 = q0*n + r0 (loop q0,
// sample r0, 0 <= r0 < n). Every probe locates its segment relative to
// (q0, r0), so only a probe more than one loop past the start divides;
// the loop count and sample index it derives equal k/n and k%n, so the
// result is the same whichever caller located the start.
func (t *Trace) harvestFrom(from, i0, q0, r0 int64, joules float64) int64 {
	const psPerSec = 1e12
	n := int64(len(t.Samples))
	p := t.Samples[r0]
	head := p * float64((i0+1)*t.Step-from) / psPerSec
	if head >= joules {
		// Same expression as the sequential reference's first segment
		// (acc = 0), so the result is bit-identical.
		frac := joules / p * psPerSec
		return int64(frac) + 1
	}
	// loc splits segment i0+d (d >= 0) into its loop and sample index.
	loc := func(d int64) (q, r int64) {
		r = r0 + d
		switch {
		case r < n:
			return q0, r
		case r < 2*n:
			return q0 + 1, r - n
		}
		return q0 + r/n, r % n
	}
	// segSum(d) is the indexed energy of full segments [0, i0+d).
	segSum := func(d int64) float64 {
		q, r := loc(d)
		return float64(q)*t.loopE + t.cum[r]
	}
	// g(d) = energy over [from, (i0+d)*Step) for d > 0. Monotone in d,
	// so the finishing segment i0+d is the smallest d with
	// g(d+1) >= joules; find it by doubling then bisection, each probe
	// O(1).
	base := segSum(1)
	g := func(d int64) float64 {
		return head + (segSum(d) - base)
	}
	span := int64(1)
	for g(1+span) < joules {
		span *= 2
	}
	lo, hi := span/2, span // g(lo+1) < joules (or lo == 0), g(hi+1) >= joules
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g(mid+1) >= joules {
			hi = mid
		} else {
			lo = mid
		}
	}
	d := hi
	// The finishing segment must supply energy; rounding at loop
	// boundaries can in principle land the bisection on a zero-power
	// segment, so skip forward to the next powered one.
	_, r := loc(d)
	for t.Samples[r] == 0 {
		d++
		if r++; r == n {
			r = 0
		}
	}
	acc := g(d)
	frac := (joules - acc) / t.Samples[r] * psPerSec
	if frac < 0 {
		frac = 0
	}
	return (i0+d)*t.Step + int64(frac) + 1 - from
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
