package power

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Source names the built-in synthetic traces matching the paper's
// evaluation (§6.1, §6.6 "Power Trace Sensitivity").
type Source string

const (
	// None means uninterrupted power (Figure 4's "no power failure").
	None Source = "none"
	// Trace1 is the home RF trace (moderately stable; ~33 outages in
	// the paper's runs).
	Trace1 Source = "tr1"
	// Trace2 is the office RF trace (less stable than tr.1; ~45).
	Trace2 Source = "tr2"
	// Trace3 is the Mementos RF trace (very unstable; ~121).
	Trace3 Source = "tr3"
	// Solar is a strong, slowly varying source (~12 outages).
	Solar Source = "solar"
	// Thermal is the strongest, most stable source (~9 outages).
	Thermal Source = "thermal"
)

// Sources lists every built-in source with power failures.
func Sources() []Source { return []Source{Trace1, Trace2, Trace3, Solar, Thermal} }

// Valid reports whether Get accepts src: None or a built-in source.
func (src Source) Valid() bool { return src == None || slices.Contains(Sources(), src) }

// builtins memoizes the synthetic traces: synthesizing 20k samples per
// sweep cell used to be pure overhead, and the traces are deterministic
// and never mutated, so every simulation shares one read-only instance.
var (
	builtinMu sync.Mutex
	builtins  = map[Source]*Trace{}
)

// Get returns the built-in trace for src, or nil for None. It panics
// on an unknown source (a configuration bug). The returned trace is
// shared and must be treated as read-only.
func Get(src Source) *Trace {
	if src == None {
		return nil
	}
	builtinMu.Lock()
	defer builtinMu.Unlock()
	if t, ok := builtins[src]; ok {
		return t
	}
	t := synthesize(src)
	builtins[src] = t
	return t
}

func synthesize(src Source) *Trace {
	switch src {
	case Trace1:
		return SynthesizeRF("tr1", 1, 13.0e-3, 0.55, 0.06)
	case Trace2:
		return SynthesizeRF("tr2", 2, 6.3e-3, 0.80, 0.12)
	case Trace3:
		return SynthesizeRF("tr3", 3, 5.0e-3, 1.10, 0.30)
	case Solar:
		return SynthesizeSmooth("solar", 4, 24.0e-3, 0.10)
	case Thermal:
		return SynthesizeSmooth("thermal", 5, 26.0e-3, 0.04)
	}
	panic("power: unknown source " + string(src))
}

const (
	genSamples = 20000       // 2 s of trace at genStep
	genStep    = 100_000_000 // 100 us per sample, in ps
)

// SynthesizeRF builds an RF-harvesting trace: a mean-reverting signal
// around mean watts with relative volatility vol, plus dead zones
// (near-zero fades) occurring with probability deadP per sample and
// lasting a geometric number of samples. Larger vol/deadP means a less
// stable source, which is what separates tr.1/tr.2/tr.3. Exported so
// users can synthesize their own conditions (see cmd/wltrace -gen).
func SynthesizeRF(name string, seed int64, mean, vol, deadP float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, genSamples)
	level := mean
	dead := 0
	for i := range s {
		// Mean-reverting multiplicative random walk.
		level += 0.2 * (mean - level)
		level *= 1 + vol*0.25*rng.NormFloat64()
		if level < 0 {
			level = 0
		}
		if dead == 0 && rng.Float64() < deadP {
			dead = 1 + rng.Intn(12)
		}
		if dead > 0 {
			dead--
			s[i] = 0.02 * mean * rng.Float64()
			continue
		}
		s[i] = level
	}
	t := &Trace{Name: name, Step: genStep, Samples: s}
	t.Reindex()
	return t
}

// SynthesizeSmooth builds a strong stable source (solar/thermal): a
// slow sinusoid with small noise and no dead zones.
func SynthesizeSmooth(name string, seed int64, mean, vol float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, genSamples)
	for i := range s {
		phase := float64(i) / float64(genSamples)
		v := mean * (1 + 0.12*math.Sin(2*math.Pi*phase*3) + vol*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		s[i] = v
	}
	t := &Trace{Name: name, Step: genStep, Samples: s}
	t.Reindex()
	return t
}
