package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/obs"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
)

// tracedLabel marks the profile samples of traced passes; untraced
// passes run in the same profile without it.
var tracedLabel = pprof.Labels("bench", "traced")

// maxSpans caps the spans one run keeps; later spans are only counted.
const maxSpans = 200_000

// sampleEvery is the seam sampling rate: about one Access and one
// machine call in sampleEvery is timed. Each timed call reads the clock
// three times, about as long as a fast-tier instruction takes, so a
// denser sample would distort the layer split it sits next to.
const sampleEvery = 256

// span is one closed interval on a trace lane. Lane 0 holds passes and
// cycles; lanes 1..workers hold one runner worker or client each.
type span struct {
	name       string
	tid        int
	start, end time.Duration // since the recorder's origin
	args       map[string]any
}

// recorder keeps a run's spans and seam aggregates in memory until the
// run ends.
type recorder struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	agg     cellStats // sum over traced cells
	instr   uint64    // simulated instructions of traced cells
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// sampleNS returns the time since start less the cost of one clock
// read, which a second, empty reading measures on the spot. A call of a
// few nanoseconds is otherwise lost in the clock's own cost; single
// samples can come out negative, their mean does not.
func sampleNS(start time.Time) int64 {
	t1 := time.Now()
	t2 := time.Now()
	return t1.Sub(start).Nanoseconds() - t2.Sub(t1).Nanoseconds()
}

// span records one interval (safe for concurrent use).
func (r *recorder) span(tid int, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(span{name, tid, start.Sub(r.origin), end.Sub(r.origin), nil})
}

func (r *recorder) add(s span) {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// newCell starts the seam counters of one traced cell on a lane.
func (r *recorder) newCell(lane int) *cellStats {
	return &cellStats{origin: r.origin, lane: lane, rng: 0x9e3779b97f4a7c15}
}

// endCell folds a finished cell into the run: its spans under a cell
// span, and its counters into the aggregate.
func (r *recorder) endCell(st *cellStats, id string, start time.Time, instr uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(span{id, st.lane, start.Sub(r.origin), time.Since(r.origin), map[string]any{"instructions": instr}})
	for _, s := range st.spans {
		r.add(s)
	}
	st.spans = nil
	r.agg.merge(st)
	r.instr += instr
}

// writeChrome writes the spans as a Chrome trace_event document, once
// the run has ended.
func (r *recorder) writeChrome(path, process string) error {
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].start < r.spans[j].start })
	events := make([]obs.TraceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = obs.TraceEvent{Name: s.name, Ph: "X", PID: 1, TID: s.tid,
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, Args: s.args}
	}
	lanes := map[int]string{0: "passes and cycles"}
	for i := 1; i <= workers; i++ {
		lanes[i] = fmt.Sprintf("worker or client %d", i)
	}
	if r.dropped > 0 {
		process += fmt.Sprintf(" (%d spans over the cap dropped)", r.dropped)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, process, lanes, events); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}

// cellStats are one traced cell's seam counters. A cell runs on one
// goroutine, so they need no synchronisation until endCell merges them.
type cellStats struct {
	origin time.Time
	lane   int
	spans  []span
	rng    uint64 // sampling generator state

	accessTimed, accessNS     int64
	callTimed, callNS         int64
	checkpoints, checkpointNS int64
	restores, restoreNS       int64
}

// sampled steps the cell's sampling generator on every call and reports
// whether this one is timed: about one call in sampleEvery, at random,
// so a kernel's periodic call pattern cannot alias with the sampling.
func (st *cellStats) sampled() bool {
	x := st.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.rng = x
	return x%sampleEvery == 0
}

func (st *cellStats) span(name string, start, end time.Time) {
	st.spans = append(st.spans, span{name, st.lane, start.Sub(st.origin), end.Sub(st.origin), nil})
}

func (st *cellStats) merge(o *cellStats) {
	st.accessTimed += o.accessTimed
	st.accessNS += o.accessNS
	st.callTimed += o.callTimed
	st.callNS += o.callNS
	st.checkpoints += o.checkpoints
	st.checkpointNS += o.checkpointNS
	st.restores += o.restores
	st.restoreNS += o.restoreNS
}

// tracedDesign forwards every sim.Design method and every optional
// interface the simulator discovers by type assertion. An optional
// method the wrapped design lacks is a no-op, which the simulator
// cannot tell from an absent one — except the access path, so
// EBAccessor is forwarded by a separate type only when the wrapped
// design has it.
type tracedDesign struct {
	sim.Design
	st *cellStats
}

// tracedDesignEB is tracedDesign over a design with AccessEB.
type tracedDesignEB struct {
	*tracedDesign
	eb sim.EBAccessor
}

// wrapDesign returns d wrapped to count and time its seam into st.
func wrapDesign(d sim.Design, st *cellStats) sim.Design {
	td := &tracedDesign{Design: d, st: st}
	if eb, ok := d.(sim.EBAccessor); ok {
		return &tracedDesignEB{td, eb}
	}
	return td
}

func (d *tracedDesign) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	if !d.st.sampled() {
		return d.Design.Access(now, op, addr, val)
	}
	t := time.Now()
	v, done, eb := d.Design.Access(now, op, addr, val)
	d.st.accessNS += sampleNS(t)
	d.st.accessTimed++
	return v, done, eb
}

func (d *tracedDesignEB) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	if !d.st.sampled() {
		return d.eb.AccessEB(now, op, addr, val, eb)
	}
	t := time.Now()
	v, done := d.eb.AccessEB(now, op, addr, val, eb)
	d.st.accessNS += sampleNS(t)
	d.st.accessTimed++
	return v, done
}

func (d *tracedDesign) Checkpoint(now int64) (int64, energy.Breakdown) {
	t := time.Now()
	done, eb := d.Design.Checkpoint(now)
	end := time.Now()
	d.st.checkpoints++
	d.st.checkpointNS += end.Sub(t).Nanoseconds()
	d.st.span("checkpoint", t, end)
	return done, eb
}

func (d *tracedDesign) Restore(now int64) (int64, energy.Breakdown) {
	t := time.Now()
	done, eb := d.Design.Restore(now)
	end := time.Now()
	d.st.restores++
	d.st.restoreNS += end.Sub(t).Nanoseconds()
	d.st.span("restore", t, end)
	return done, eb
}

func (d *tracedDesign) OnBoot(lastOn, prevOn int64) {
	if rb, ok := d.Design.(sim.Rebooter); ok {
		rb.OnBoot(lastOn, prevOn)
	}
}

func (d *tracedDesign) ExtraStats() stats.DesignExtra {
	if es, ok := d.Design.(sim.ExtraStatser); ok {
		return es.ExtraStats()
	}
	return stats.DesignExtra{}
}

func (d *tracedDesign) BindEnergyProbe(probe func(newReserve float64) bool) {
	if b, ok := d.Design.(sim.EnergyProbeBinder); ok {
		b.BindEnergyProbe(probe)
	}
}

func (d *tracedDesign) BindReserveChanged(notify func()) {
	if b, ok := d.Design.(sim.ReserveNotifyBinder); ok {
		b.BindReserveChanged(notify)
	}
}

// tracedMachine times a random sample of the workload's calls into the
// simulator.
type tracedMachine struct {
	m  isa.Machine
	st *cellStats
}

func (t *tracedMachine) timed(start time.Time) {
	t.st.callNS += sampleNS(start)
	t.st.callTimed++
}

func (t *tracedMachine) Load32(addr uint32) uint32 {
	if !t.st.sampled() {
		return t.m.Load32(addr)
	}
	start := time.Now()
	v := t.m.Load32(addr)
	t.timed(start)
	return v
}

func (t *tracedMachine) Store32(addr uint32, v uint32) {
	if !t.st.sampled() {
		t.m.Store32(addr, v)
		return
	}
	start := time.Now()
	t.m.Store32(addr, v)
	t.timed(start)
}

func (t *tracedMachine) Compute(n int) {
	if !t.st.sampled() {
		t.m.Compute(n)
		return
	}
	start := time.Now()
	t.m.Compute(n)
	t.timed(start)
}
