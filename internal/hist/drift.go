// The drift gate: judge each metric's newest transition against its
// comparable history. The rules per kind:
//
//   - exact: the latest value must equal the most recent comparable
//     value. For a directed exact metric (outages, failed cells) only
//     the bad direction is a regression — fewer outages is an
//     improvement; a metric with direction none (a checksum) must not
//     move at all. Every wlobs/v1 manifest metric, the cycle ledger's
//     attr.* counters included, is exact.
//     Exact metrics are host-independent, so they compare across hosts
//     as long as the engine versions do not conflict: a checksum from
//     engine 6 never gates against one from engine 5.
//   - perf: the latest value must be within Threshold (relative) of
//     the most recent comparable value, and comparability demands the
//     same host fingerprint — a faster CI runner is not a speedup.
//     Sampled latency quantiles (request_ms_p50) are perf metrics, and
//     so is any other kind the gate does not know: a store written
//     when latency was a kind of its own still says "latency".
//   - info: never gates.
package hist

import (
	"math"

	"wlcache/internal/obs"
)

// GateConfig tunes the drift gate. The zero value selects the
// defaults noted on each field.
type GateConfig struct {
	// Threshold is the relative change tolerated on perf metrics
	// (default 0.10 = 10%).
	Threshold float64
}

func (c GateConfig) normalized() GateConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.10
	}
	return c
}

// Finding is the gate's verdict on one metric.
type Finding struct {
	Metric   string
	Kind     string
	Dir      obs.Dir
	Baseline float64 // prior comparable value
	Latest   float64
	Rel      float64 // (Latest-Baseline)/Baseline; 0 when Baseline is 0
	// Verdict is "ok", "improved", "regressed" or "skipped".
	Verdict string
	// Note explains an exact regression ("exact value changed") or
	// the skip ("no comparable baseline: host differs").
	Note string
}

// Regressed reports whether the finding fails the gate.
func (f Finding) Regressed() bool { return f.Verdict == "regressed" }

// GateReport is the gate's verdict over a whole store.
type GateReport struct {
	Findings    []Finding
	Compared    int // metrics judged against a baseline
	Skipped     int // gateable metrics with no comparable baseline
	Regressions int
}

// Gate judges the newest transition of every gateable series in the
// store. Info metrics and single-point series produce no finding.
func Gate(s *Store, cfg GateConfig) GateReport {
	cfg = cfg.normalized()
	var rep GateReport
	for _, sr := range s.SeriesAll() {
		if sr.Kind == KindInfo || sr.Kind == "" {
			continue
		}
		if len(sr.Points) < 2 {
			continue
		}
		f := judge(sr, cfg)
		if f.Verdict == "skipped" {
			rep.Skipped++
		} else {
			rep.Compared++
			if f.Regressed() {
				rep.Regressions++
			}
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}

// judge applies the kind's rule to the series' newest point.
func judge(sr Series, cfg GateConfig) Finding {
	latest := sr.Points[len(sr.Points)-1]
	prior := sr.Points[:len(sr.Points)-1]
	f := Finding{Metric: sr.Name, Kind: sr.Kind, Dir: sr.Dir, Latest: latest.Value}

	comparable := func(p Point) bool {
		if sr.Kind == KindExact {
			return comparableExact(p.Key, latest.Key)
		}
		return comparablePerf(p.Key, latest.Key)
	}

	// The most recent comparable prior point is the baseline.
	base := -1
	for i := len(prior) - 1; i >= 0; i-- {
		if comparable(prior[i]) {
			base = i
			break
		}
	}
	if base < 0 {
		f.Verdict = "skipped"
		f.Note = skipReason(prior[len(prior)-1].Key, latest.Key, sr.Kind)
		return f
	}
	f.Baseline = prior[base].Value
	f.Rel = relChange(f.Baseline, f.Latest)

	if sr.Kind == KindExact {
		judgeExact(&f)
	} else {
		judgePerf(&f, cfg)
	}
	return f
}

func judgeExact(f *Finding) {
	switch {
	case f.Latest == f.Baseline:
		f.Verdict = "ok"
	case f.Dir == obs.DirNone:
		f.Verdict = "regressed"
		f.Note = "exact value changed"
	case f.Dir == obs.DirLower && f.Latest > f.Baseline,
		f.Dir == obs.DirHigher && f.Latest < f.Baseline:
		f.Verdict = "regressed"
		f.Note = "exact value moved the wrong way"
	default:
		f.Verdict = "improved"
	}
}

func judgePerf(f *Finding, cfg GateConfig) {
	bad := f.Rel > cfg.Threshold && f.Dir == obs.DirLower ||
		f.Rel < -cfg.Threshold && f.Dir == obs.DirHigher
	good := f.Rel < -cfg.Threshold && f.Dir == obs.DirLower ||
		f.Rel > cfg.Threshold && f.Dir == obs.DirHigher
	switch {
	case bad:
		f.Verdict = "regressed"
	case good:
		f.Verdict = "improved"
	default:
		f.Verdict = "ok"
	}
}

func relChange(base, latest float64) float64 {
	if base == 0 {
		if latest == 0 {
			return 0
		}
		return math.Inf(sign(latest))
	}
	return (latest - base) / math.Abs(base)
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// comparablePerf: host-speed numbers compare only within one host
// fingerprint. Two unknown fingerprints are the same (unfingerprinted)
// machine by assertion; known-vs-unknown never compares, so CI runner
// variance cannot masquerade as a code change.
func comparablePerf(a, b Key) bool {
	return a.Host == b.Host && enginesCompatible(a.Engine, b.Engine)
}

// comparableExact: simulated outcomes are host-independent, so only a
// definite engine-version conflict blocks the comparison.
func comparableExact(a, b Key) bool {
	return enginesCompatible(a.Engine, b.Engine)
}

// enginesCompatible: two known engine versions must be equal; an
// unknown one (a host block that names no engine) is a wildcard.
func enginesCompatible(a, b string) bool {
	if a == "" || a == Unknown || b == "" || b == Unknown {
		return true
	}
	return a == b
}

func skipReason(prevKey, latestKey Key, kind string) string {
	if kind != KindExact && prevKey.Host != latestKey.Host {
		return "no comparable baseline: host differs"
	}
	if !enginesCompatible(prevKey.Engine, latestKey.Engine) {
		return "no comparable baseline: engine differs"
	}
	return "no comparable baseline"
}
