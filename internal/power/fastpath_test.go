package power

import (
	"math"
	"math/rand"
	"testing"
)

// randTrace builds an indexed trace with n segments of step ps, drawing
// powers from r; zeroFrac of the segments are forced to exactly zero
// (dead air between RF bursts).
func randTrace(r *rand.Rand, n int, step int64, zeroFrac float64) *Trace {
	t := &Trace{Name: "rand", Step: step, Samples: make([]float64, n)}
	for i := range t.Samples {
		if r.Float64() < zeroFrac {
			continue
		}
		t.Samples[i] = r.Float64() * 5e-3
	}
	t.Reindex()
	return t
}

// integrateSeq is the segment-stepping reference integral over
// [from, to) ps: the cursor must match it bit for bit, and the
// TimeToHarvest tests measure the energy of their windows with it.
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

// TestIntegrateEquivalence cross-checks Cursor.Integrate against the
// sequential reference over random windows in random order, including
// windows spanning many whole trace periods: every window is
// bit-identical.
func TestIntegrateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		tr := randTrace(r, 1+r.Intn(64), 1000+int64(r.Intn(5))*777, 0.3)
		cur := NewCursor(tr)
		dur := tr.Duration()
		for w := 0; w < 200; w++ {
			from := int64(r.Intn(int(4 * dur)))
			width := int64(r.Intn(int(6*dur))) + 1
			got := cur.Integrate(from, from+width)
			want := tr.integrateSeq(from, from+width)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window [%d,%d): got %x want %x", from, from+width,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestIntegrateMultiPeriod pins the wrap-around algebra: a window of
// exactly k whole loops integrates to k times one loop (up to rounding),
// regardless of where it starts.
func TestIntegrateMultiPeriod(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := randTrace(r, 48, 2500, 0.25)
	cur := NewCursor(tr)
	dur := tr.Duration()
	oneLoop := cur.Integrate(0, dur)
	for k := int64(1); k <= 9; k++ {
		for _, from := range []int64{0, 1, tr.Step - 1, tr.Step, dur - 1, dur, 3*dur + 17} {
			got := cur.Integrate(from, from+k*dur)
			want := float64(k) * oneLoop
			if diff := math.Abs(got - want); diff > 1e-9*want {
				t.Fatalf("k=%d from=%d: got %g want %g", k, from, got, want)
			}
		}
	}
}

// TestIntegrateUnindexedFallback: hand-assembled literals without the
// index must still integrate correctly, and Reindex builds the index.
func TestIntegrateUnindexedFallback(t *testing.T) {
	tr := &Trace{Step: 1000, Samples: []float64{1e-3, 0, 2e-3}}
	got := NewCursor(tr).Integrate(0, 3000)
	want := tr.integrateSeq(0, 3000)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("unindexed Integrate diverged: %g vs %g", got, want)
	}
	if tr.indexed() {
		t.Fatal("literal trace unexpectedly indexed")
	}
	tr.Reindex()
	if !tr.indexed() {
		t.Fatal("Reindex did not index the trace")
	}
}

// TestTimeToHarvestEquivalence cross-checks the binary-search
// TimeToHarvest against the segment-stepping reference. The two
// accumulate partial-segment energies in different orders, so the
// returned instants may differ by rounding; both must land within a
// couple of picoseconds and actually supply the requested energy.
func TestTimeToHarvestEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tr := randTrace(r, 1+r.Intn(48), 1000+int64(r.Intn(7))*997, 0.35)
		if tr.Mean() <= 0 {
			continue
		}
		dur := tr.Duration()
		loopE := tr.integrateSeq(0, dur)
		for w := 0; w < 60; w++ {
			from := int64(r.Intn(int(3 * dur)))
			joules := r.Float64() * 4 * loopE
			if joules <= 0 {
				continue
			}
			dtFast, okFast := tr.TimeToHarvest(from, joules)
			dtSeq, okSeq := tr.timeToHarvestSeq(from, joules)
			if okFast != okSeq {
				t.Fatalf("ok mismatch: fast=%v seq=%v", okFast, okSeq)
			}
			tol := int64(4) + int64(1e-9*float64(dtSeq))
			if d := dtFast - dtSeq; d < -tol || d > tol {
				t.Fatalf("from=%d joules=%g: fast dt=%d seq dt=%d", from, joules, dtFast, dtSeq)
			}
			if e := tr.integrateSeq(from, from+dtFast); e < joules*(1-1e-9) {
				t.Fatalf("from=%d: dt=%d harvests %g < %g", from, dtFast, e, joules)
			}
		}
	}
}

// TestTimeToHarvestZeroSegments is the regression test for the
// bisection landing on (or starting in) a zero-power segment: the
// harvest must complete in the next powered segment, never divide by
// zero, and agree with the sequential reference.
func TestTimeToHarvestZeroSegments(t *testing.T) {
	tr := &Trace{Name: "bursty", Step: 1000,
		Samples: []float64{0, 0, 3e-3, 0, 0, 0, 1e-3, 0}}
	tr.Reindex()
	cases := []struct {
		from   int64
		joules float64
	}{
		{0, 1e-9},           // starts in dead air, finishes in segment 2
		{500, 2.9e-9},       // partial dead segment, almost all of segment 2
		{2999, 1e-9},        // one ps of power then three dead segments
		{3000, 3.5e-9},      // dead start, must wrap into the next loop
		{6500, 0.4e-9},      // finishes inside the weak tail segment
		{7999, 4e-9},        // last ps of the loop, full wrap
		{16_000, 12e-9},     // multiple whole loops of dead+powered mix
		{2500, 3.000001e-9}, // lands exactly past segment 2's remainder
	}
	for _, c := range cases {
		dtFast, okFast := tr.TimeToHarvest(c.from, c.joules)
		dtSeq, okSeq := tr.timeToHarvestSeq(c.from, c.joules)
		if !okFast || !okSeq {
			t.Fatalf("from=%d joules=%g: not ok (fast=%v seq=%v)", c.from, c.joules, okFast, okSeq)
		}
		// The two paths accumulate in different orders; when rounding
		// leaves one epsilon-short just before a zero-power run, its
		// finishing instant legitimately jumps past the dead run, so the
		// instants are only compared one-sidedly here. Sufficiency and
		// minimality below pin the actual contract.
		if dtFast < dtSeq-4 {
			t.Fatalf("from=%d joules=%g: fast dt=%d earlier than seq dt=%d", c.from, c.joules, dtFast, dtSeq)
		}
		// Sufficiency: the window must actually supply the energy.
		if e := tr.integrateSeq(c.from, c.from+dtFast); e < c.joules*(1-1e-9) {
			t.Fatalf("from=%d: dt=%d harvests %g < %g", c.from, dtFast, e, c.joules)
		}
		// Minimality: a few ps earlier must not (the +1 ps convention and
		// boundary-exact completions allow a tiny slack, never a whole
		// zero segment of overshoot).
		if dtFast > 4 {
			if e := tr.integrateSeq(c.from, c.from+dtFast-4); e >= c.joules*(1+1e-9) {
				t.Fatalf("from=%d: dt=%d overshoots (dt-4 already harvests %g >= %g)",
					c.from, dtFast, e, c.joules)
			}
		}
	}
	// All-zero trace can never supply energy.
	dead := &Trace{Step: 1000, Samples: []float64{0, 0}}
	dead.Reindex()
	if _, ok := dead.TimeToHarvest(0, 1e-12); ok {
		t.Fatal("all-zero trace claimed to harvest")
	}
}

// TestTimeToHarvestWrapAround pins multi-loop outages: requesting k
// whole loops of energy takes just about k loop durations.
func TestTimeToHarvestWrapAround(t *testing.T) {
	tr := &Trace{Name: "wrap", Step: 2000, Samples: []float64{2e-3, 0, 1e-3, 0}}
	tr.Reindex()
	dur := tr.Duration()
	loopE := tr.integrateSeq(0, dur)
	for k := 1; k <= 20; k++ {
		joules := float64(k) * loopE
		dt, ok := tr.TimeToHarvest(0, joules)
		if !ok {
			t.Fatalf("k=%d: not ok", k)
		}
		// The energy is complete when the k-th loop's last powered
		// segment ends, so the finishing instant lies within the k-th
		// loop (+ a few ps when rounding pushes a boundary-exact
		// completion just past it).
		lo, hi := int64(k-1)*dur, int64(k)*dur+4
		if dt <= lo || dt > hi {
			t.Fatalf("k=%d: dt=%d outside (%d,%d]", k, dt, lo, hi)
		}
		if e := tr.integrateSeq(0, dt); e < joules*(1-1e-9) {
			t.Fatalf("k=%d: dt=%d harvests %g < %g", k, dt, e, joules)
		}
	}
	// Starting mid-loop near the wrap boundary.
	dt, ok := tr.TimeToHarvest(dur-1, loopE)
	if !ok || dt <= 0 {
		t.Fatalf("wrap start: dt=%d ok=%v", dt, ok)
	}
	if e := tr.integrateSeq(dur-1, dur-1+dt); e < loopE*(1-1e-9) {
		t.Fatalf("wrap start under-harvests: %g < %g", e, loopE)
	}
}

// TestCursorMatchesIntegrate drives a Cursor through the simulator's
// access pattern — many tiny advancing windows, occasional large jumps
// (outages), rare backward seeks — and demands bit-identical results to
// the sequential reference at every step.
func TestCursorMatchesIntegrate(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		tr := randTrace(r, 1+r.Intn(32), 100_000, 0.3)
		cur := NewCursor(tr)
		now := int64(0)
		for i := 0; i < 5000; i++ {
			var width int64
			switch r.Intn(100) {
			case 0: // outage-sized jump
				now += int64(r.Intn(int(8 * tr.Duration())))
				width = int64(r.Intn(2000)) + 1
			case 1: // backward seek (replayed window)
				if now > 500 {
					now -= 500
				}
				width = int64(r.Intn(2000)) + 1
			case 2: // window spanning several segments
				width = int64(r.Intn(int(3*tr.Step))) + 1
			default: // ordinary few-ns event
				width = int64(r.Intn(5000)) + 1
			}
			got := cur.Integrate(now, now+width)
			if want := tr.integrateSeq(now, now+width); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d [%d,%d): cursor %x seq %x",
					trial, i, now, now+width, math.Float64bits(got), math.Float64bits(want))
			}
			now += width
		}
	}
}

// TestMeanCached verifies the cached mean is bit-identical to the
// unindexed computation.
func TestMeanCached(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tr := randTrace(r, 1000, 1000, 0.2)
	plain := &Trace{Step: tr.Step, Samples: tr.Samples}
	if math.Float64bits(tr.Mean()) != math.Float64bits(plain.Mean()) {
		t.Fatalf("cached mean %g != recomputed %g", tr.Mean(), plain.Mean())
	}
}

// timeToHarvestDiv is the indexed search as first written: every probe
// divides its absolute segment index by the loop length. The shared
// search must reproduce it bit for bit.
func (t *Trace) timeToHarvestDiv(from int64, joules float64) int64 {
	const psPerSec = 1e12
	n := int64(len(t.Samples))
	segSum := func(k int64) float64 { return float64(k/n)*t.loopE + t.cum[k%n] }
	i0 := from / t.Step
	p := t.Samples[i0%n]
	head := p * float64((i0+1)*t.Step-from) / psPerSec
	if head >= joules {
		return int64(joules/p*psPerSec) + 1
	}
	g := func(j int64) float64 { return head + (segSum(j) - segSum(i0+1)) }
	span := int64(1)
	for g(i0+1+span) < joules {
		span *= 2
	}
	lo, hi := i0+span/2, i0+span
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g(mid+1) >= joules {
			hi = mid
		} else {
			lo = mid
		}
	}
	j := hi
	for t.Samples[j%n] == 0 {
		j++
	}
	frac := (joules - g(j)) / t.Samples[j%n] * psPerSec
	if frac < 0 {
		frac = 0
	}
	return j*t.Step + int64(frac) + 1 - from
}

// TestCursorTimeToHarvestMatchesTrace moves one cursor through every
// kind of state the simulator leaves it in — fresh, mid-segment,
// exactly at its segment's end, after a backward seek, in the last
// sample before a loop wrap — and asks it for harvests from there,
// starting in and crossing zero-power runs. Every answer (dt and ok)
// must equal Trace.TimeToHarvest's and the per-probe-division search's
// bit for bit, and Integrate must stay exact after each search.
func TestCursorTimeToHarvestMatchesTrace(t *testing.T) {
	bursty := &Trace{Name: "bursty", Step: 1000,
		Samples: []float64{0, 0, 3e-3, 0, 0, 0, 1e-3, 0}}
	bursty.Reindex()
	wrap := &Trace{Name: "wrap", Step: 2000, Samples: []float64{2e-3, 0, 1e-3, 0}}
	wrap.Reindex()
	one := &Trace{Name: "one", Step: 500, Samples: []float64{1e-3}}
	one.Reindex()
	dead := &Trace{Step: 1000, Samples: []float64{0, 0}}
	dead.Reindex()
	traces := []*Trace{bursty, wrap, one, dead}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		traces = append(traces, randTrace(r, 1+r.Intn(40), 1000+int64(r.Intn(7))*997, 0.4))
	}

	for ti, tr := range traces {
		check := func(cur *Cursor, state string, from int64, joules float64) {
			t.Helper()
			dt, ok := cur.TimeToHarvest(from, joules)
			wantDT, wantOK := tr.TimeToHarvest(from, joules)
			if dt != wantDT || ok != wantOK {
				t.Fatalf("trace %d, %s: from=%d joules=%g: cursor (%d, %v), trace (%d, %v)",
					ti, state, from, joules, dt, ok, wantDT, wantOK)
			}
			if ok && joules > 0 {
				if div := tr.timeToHarvestDiv(from, joules); dt != div {
					t.Fatalf("trace %d, %s: from=%d joules=%g: dt %d, dividing search %d",
						ti, state, from, joules, dt, div)
				}
			}
			// The search may reseek; Integrate must not notice.
			to := from + 1 + int64(r.Intn(int(3*tr.Step)))
			if got, want := cur.Integrate(from, to), tr.integrateSeq(from, to); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trace %d, %s: Integrate[%d,%d) after search: %x, want %x", ti, state, from, to,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
		dur := tr.Duration()
		loopE := tr.integrateSeq(0, dur)
		energies := []float64{0, 1e-15, loopE / 7, loopE / 2, loopE, 3.5 * loopE, 17 * loopE}
		for k := 0; k < 6; k++ {
			energies = append(energies, r.Float64()*5*loopE)
		}
		for _, j := range energies {
			cur := NewCursor(tr)
			check(cur, "fresh", 0, j)
			check(NewCursor(tr), "fresh, far start", 5*dur+tr.Step/3, j)

			// Mid-segment: the last window ended inside segment s.
			s := int64(r.Intn(3 * len(tr.Samples)))
			cur = NewCursor(tr)
			cur.Integrate(s*tr.Step, s*tr.Step+tr.Step/2)
			check(cur, "mid-segment", s*tr.Step+tr.Step/2, j)

			// Exactly at segEnd: from is the first ps of the next segment.
			cur = NewCursor(tr)
			cur.Integrate(s*tr.Step+1, (s+1)*tr.Step)
			check(cur, "at segEnd", (s+1)*tr.Step, j)

			// Backward seek: the cursor sits loops ahead of from.
			cur = NewCursor(tr)
			cur.Integrate(4*dur+s*tr.Step, 4*dur+s*tr.Step+1)
			check(cur, "backward", s*tr.Step+tr.Step-1, j)

			// Loop wrap: cached in the last sample, from in the next loop.
			last := int64(len(tr.Samples)) - 1
			cur = NewCursor(tr)
			cur.Integrate(2*dur+last*tr.Step, 2*dur+last*tr.Step+tr.Step/4)
			check(cur, "last sample", 2*dur+last*tr.Step+tr.Step/4, j)
			check(cur, "across wrap", 3*dur, j)

			// Every start offset of the first two loops from one cursor
			// advancing through them.
			cur = NewCursor(tr)
			for from := int64(0); from < 2*dur; from += tr.Step/3 + 1 {
				check(cur, "sweep", from, j)
			}
		}
	}
}
