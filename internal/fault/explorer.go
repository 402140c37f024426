package fault

import (
	"errors"
	"fmt"
	"hash/fnv"

	"wlcache/internal/expt"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
)

// Outcome classifies one audited run against its golden reference.
type Outcome string

const (
	// OutcomeOK: the run completed with no error and the golden
	// checksum — full recovery.
	OutcomeOK Outcome = "ok"
	// OutcomeDetected: a crash-consistency check caught the injected
	// damage (the error wraps sim.ErrCrashConsistency).
	OutcomeDetected Outcome = "detected"
	// OutcomeCorrupt: the run completed but produced a wrong checksum
	// — silent corruption, the worst case.
	OutcomeCorrupt Outcome = "corrupt"
	// OutcomeError: the run failed for a reason other than a
	// consistency check (no progress, reserve exhausted, ...).
	OutcomeError Outcome = "error"
)

// Cell is one audited (design, workload, mode, seed) run.
type Cell struct {
	Design   string
	Workload string
	Mode     Mode
	Seed     uint64

	Crashes     uint64
	TornWrites  uint64
	DroppedACKs uint64

	Outcome Outcome
	Detail  string // error text or checksum mismatch, empty for ok
}

// Pass applies the fairness model (see the package comment): fair
// modes demand full recovery; unfair modes additionally accept a
// detected inconsistency, but never silent corruption.
func (c Cell) Pass() bool {
	switch c.Outcome {
	case OutcomeOK:
		return true
	case OutcomeDetected:
		return !c.Mode.Fair()
	}
	return false
}

// Matrix configures an audit sweep.
type Matrix struct {
	Designs   []expt.Kind
	Workloads []string
	Modes     []Mode
	Seeds     []uint64
	// Points is how many crash points are sampled per run, stratified
	// across the golden run's execution time.
	Points int
	Scale  int // workload input-size multiplier
}

// DefaultMatrix audits every design (including the broken negative
// control) on two short store-heavy benchmarks, all fault modes,
// three seeds, four crash points each.
func DefaultMatrix() Matrix {
	return Matrix{
		Designs:   expt.AllKinds(),
		Workloads: []string{"adpcmencode", "basicmath"},
		Modes:     Modes(),
		Seeds:     []uint64{1, 2, 3},
		Points:    4,
		Scale:     1,
	}
}

// Report is the outcome of one audit sweep.
type Report struct {
	Cells []Cell

	designs []string
	modes   []Mode
}

// DesignPass reports whether every cell of the named design passed.
func (r *Report) DesignPass(design string) bool {
	for _, c := range r.Cells {
		if c.Design == design && !c.Pass() {
			return false
		}
	}
	return true
}

// Failures returns every failing cell, in audit order.
func (r *Report) Failures() []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if !c.Pass() {
			out = append(out, c)
		}
	}
	return out
}

// Table renders the report as a design × mode pass/fail grid with a
// trailing verdict column.
func (r *Report) Table() *stats.TextTable {
	cols := make([]string, 0, len(r.modes)+1)
	for _, m := range r.modes {
		cols = append(cols, string(m))
	}
	cols = append(cols, "verdict")
	t := &stats.TextTable{Title: "Crash-consistency audit", Columns: cols}
	for _, d := range r.designs {
		row := make([]string, 0, len(cols))
		all := true
		for _, m := range r.modes {
			pass := true
			for _, c := range r.Cells {
				if c.Design == d && c.Mode == m && !c.Pass() {
					pass = false
					break
				}
			}
			all = all && pass
			row = append(row, verdict(pass))
		}
		row = append(row, verdict(all))
		t.Add(d, row...)
	}
	return t
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// golden captures the uninterrupted reference run of one (design,
// workload) pair.
type golden struct {
	execTime   int64
	checksum   uint32
	lineWrites uint64
}

// Audit runs the full matrix: one golden run per (design, workload),
// then one faulted run per (design, workload, mode, seed), each with
// Points crashes sampled across the golden execution time.
func Audit(m Matrix) (*Report, error) {
	if m.Points <= 0 {
		m.Points = 4
	}
	rep := &Report{modes: m.Modes}
	for _, kind := range m.Designs {
		rep.designs = append(rep.designs, string(kind))
		for _, wl := range m.Workloads {
			g, err := goldenRun(kind, wl, m.Scale)
			if err != nil {
				return nil, fmt.Errorf("fault: golden run %s/%s: %w", kind, wl, err)
			}
			for _, mode := range m.Modes {
				for _, seed := range m.Seeds {
					cell := auditCell(kind, wl, mode, seed, m.Points, m.Scale, g)
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
	}
	return rep, nil
}

// AuditOne audits a single (design, workload, mode, seed) cell,
// computing its own golden reference. Tests use it for targeted
// checks; Audit shares golden runs across modes and seeds instead.
func AuditOne(kind expt.Kind, wl string, mode Mode, seed uint64, points, scale int) (Cell, error) {
	g, err := goldenRun(kind, wl, scale)
	if err != nil {
		return Cell{}, fmt.Errorf("fault: golden run %s/%s: %w", kind, wl, err)
	}
	return auditCell(kind, wl, mode, seed, points, scale, g), nil
}

// lineCounter is the golden run's fault plan: it never crashes, and
// its Arm installs an NVM hook that counts every line write.
type lineCounter struct{ writes uint64 }

func (c *lineCounter) Arm(nvm *mem.NVM, _ sim.Design, _ *obs.Recorder) {
	nvm.SetLineWriteHook(func(wr mem.LineWrite) int {
		c.writes++
		return len(wr.Data)
	})
}
func (*lineCounter) ShouldCrash(uint64, int64) bool { return false }
func (*lineCounter) CheckpointStart(int64, bool)    {}
func (*lineCounter) CheckpointEnd(int64)            {}

// goldenRun executes the uninterrupted reference: no power trace, no
// crashes. Invariants stay off — the golden run only defines the
// reference checksum and timeline; even the broken negative control
// is "correct" when power never fails, and judging durability is the
// audited runs' job. It also counts line writes so torn-write crash
// points can target real write-back traffic.
func goldenRun(kind expt.Kind, wl string, scale int) (golden, error) {
	lc := &lineCounter{}
	cfg := sim.DefaultConfig()
	cfg.FaultPlan = lc
	res, err := expt.Run(kind, expt.Options{}, wl, scale, power.None, cfg)
	if err != nil {
		return golden{}, err
	}
	return golden{execTime: res.ExecTime, checksum: res.Checksum, lineWrites: lc.writes}, nil
}

// auditCell runs one faulted simulation and classifies it against the
// golden reference.
func auditCell(kind expt.Kind, wl string, mode Mode, seed uint64, points, scale int, g golden) Cell {
	cell := Cell{Design: string(kind), Workload: wl, Mode: mode, Seed: seed}

	rng := cellSeed(string(kind), wl, string(mode), seed)
	inj := NewInjector(mode, mix(&rng))
	times := make([]int64, 0, points)
	for i := 0; i < points; i++ {
		f := (float64(i) + fracOf(mix(&rng))) / float64(points)
		t := int64(f * float64(g.execTime))
		if t < 1 {
			t = 1
		}
		times = append(times, t)
	}
	inj.CrashAtTimes(times...)
	if mode == ModeTornWB && g.lineWrites > 0 {
		// Two extra crash points land right after a sampled line
		// write, inside its persist window, so the torn-write path is
		// exercised even when time-sampled points miss all traffic.
		inj.CrashAtLineWrites(1+mix(&rng)%g.lineWrites, 1+mix(&rng)%g.lineWrites)
	}

	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = true
	cfg.FaultPlan = inj
	res, err := expt.Run(kind, expt.Options{}, wl, scale, power.None, cfg)

	cell.Crashes = inj.Crashes
	cell.TornWrites = inj.TornWrites
	cell.DroppedACKs = inj.DroppedACKs
	switch {
	case err == nil && res.Checksum == g.checksum:
		cell.Outcome = OutcomeOK
	case err == nil:
		cell.Outcome = OutcomeCorrupt
		cell.Detail = fmt.Sprintf("checksum %#x, golden %#x", res.Checksum, g.checksum)
	case errors.Is(err, sim.ErrCrashConsistency):
		cell.Outcome = OutcomeDetected
		cell.Detail = err.Error()
	default:
		cell.Outcome = OutcomeError
		cell.Detail = err.Error()
	}
	return cell
}

// cellSeed derives a deterministic per-cell generator state from the
// cell coordinates and the user seed.
func cellSeed(parts ...interface{}) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return h.Sum64()
}

// mix steps a splitmix64 state (explorer-side sampling).
func mix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fracOf maps one generator output to [0, 1).
func fracOf(v uint64) float64 { return float64(v>>11) / (1 << 53) }
