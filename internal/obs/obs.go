// Package obs is the observability layer: a zero-overhead-when-
// disabled structured event tracer, a metrics registry (counters,
// gauges, log-bucketed histograms) and JSONL run manifests, threaded
// through the simulator, the WL-Cache core, the energy and memory
// models and the fault injectors.
//
// The paper's central claims are temporal — DirtyQueue occupancy
// hovering at the waterline, asynchronous write-backs overlapping
// execution, JIT checkpoints fitting inside the reserved energy band
// — and end-of-run aggregates cannot show them. A Recorder captures
// the per-event timeline (exportable as Chrome trace_event JSON for
// chrome://tracing / Perfetto) and the distributions behind it, and
// snapshots both into a manifest that the run-history gate
// (internal/hist, `wlhist gate`) compares across code versions to flag
// any changed simulated outcome.
//
// # Overhead model
//
// Instrumentation mirrors the FaultPlan/LineWriteHook pattern: every
// hook site holds a possibly-nil *Recorder (or an interface wired
// only when recording) and every Recorder/Counter/Gauge/Histogram
// method is nil-safe, so a disabled site costs exactly one nil check
// and an enabled site never allocates on the hot path — events go
// into a preallocated ring, metrics into preresolved structs.
package obs

// RunMeta keys a recording: the design × workload × trace cell the
// metrics and events belong to.
type RunMeta struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Trace    string `json:"trace"`
}

// Key returns the manifest-matching key of the cell.
func (m RunMeta) Key() string { return m.Design + " / " + m.Workload + " / " + m.Trace }

// Recorder bundles one run's event trace and metrics registry and
// exposes the typed event sites the instrumented packages call. All
// methods are nil-safe: a nil *Recorder records nothing.
type Recorder struct {
	Meta RunMeta

	trace *Trace
	reg   *Registry

	// Preresolved metrics, so event sites skip the registry map.
	stallPS      *Histogram
	wbLatPS      *Histogram
	dqOcc        *Histogram
	ckptPS       *Histogram
	ckptPJ       *Histogram
	ckptLines    *Histogram
	offPS        *Histogram
	restorePS    *Histogram
	portWaitPS   *Histogram
	portHiddenPS *Histogram

	stalls    *Counter
	wbIssued  *Counter
	wbAcked   *Counter
	wbDropped *Counter
	ckpts     *Counter
	ckptForce *Counter
	outages   *Counter
	adapts    *Counter
	torn      *Counter

	capV      *Gauge
	maxline   *Gauge
	waterline *Gauge
}

// NewRecorder builds a recorder for one run. eventCap bounds the
// event ring (<= 0 uses DefaultEventCap).
func NewRecorder(meta RunMeta, eventCap int) *Recorder {
	reg := NewRegistry()
	r := &Recorder{
		Meta:  meta,
		trace: NewTrace(eventCap),
		reg:   reg,

		stallPS:      reg.Histogram("core.stall_ps", DirLower),
		wbLatPS:      reg.Histogram("wb.latency_ps", DirLower),
		dqOcc:        reg.Histogram("dq.occupancy", DirNone),
		ckptPS:       reg.Histogram("ckpt.cost_ps", DirLower),
		ckptPJ:       reg.Histogram("ckpt.energy_pj", DirLower),
		ckptLines:    reg.Histogram("ckpt.lines", DirNone),
		offPS:        reg.Histogram("power.off_ps", DirLower),
		restorePS:    reg.Histogram("power.restore_ps", DirLower),
		portWaitPS:   reg.Histogram("nvm.port_wait_ps", DirLower),
		portHiddenPS: reg.Histogram("nvm.port_wait_async_ps", DirNone),

		stalls:    reg.Counter("core.stalls", DirLower),
		wbIssued:  reg.Counter("wb.issued", DirNone),
		wbAcked:   reg.Counter("wb.acked", DirNone),
		wbDropped: reg.Counter("wb.dropped", DirLower),
		ckpts:     reg.Counter("ckpt.count", DirLower),
		ckptForce: reg.Counter("ckpt.forced", DirNone),
		outages:   reg.Counter("power.outages", DirLower),
		adapts:    reg.Counter("core.adapts", DirNone),
		torn:      reg.Counter("fault.torn_writes", DirNone),

		capV:      reg.Gauge("energy.capacitor_v", DirNone),
		maxline:   reg.Gauge("core.maxline", DirNone),
		waterline: reg.Gauge("core.waterline", DirNone),
	}
	return r
}

// Registry exposes the metrics registry (nil on a nil recorder), so
// callers can fold run-level results in as extra gauges before
// snapshotting a manifest.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Trace exposes the event ring (nil on a nil recorder).
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// VoltageGauge returns the capacitor-voltage gauge, which the
// simulator sets at every settle and at every forced voltage (the
// collapse to VMin and the recharge to Von).
func (r *Recorder) VoltageGauge() *Gauge {
	if r == nil {
		return nil
	}
	return r.capV
}

// --- event sites ---

// StoreStall records one store stalled at the maxline bound (or a
// baseline's write-buffer/region bound) on line addr from start until
// end (core.ensureSlot).
func (r *Recorder) StoreStall(start, end int64, addr uint32) {
	if r == nil {
		return
	}
	r.stalls.Inc()
	r.stallPS.Observe(float64(end - start))
	r.trace.Push(Event{TS: start, Dur: end - start, Kind: KStall, A: int64(addr)})
}

// WritebackIssued records an asynchronous write-back leaving the
// DirtyQueue for the NVM.
func (r *Recorder) WritebackIssued(now int64, addr uint32) {
	if r == nil {
		return
	}
	r.wbIssued.Inc()
	r.trace.Push(Event{TS: now, Kind: KWBIssue, A: int64(addr)})
}

// WritebackACK records a write-back ACK: issued -> done is the
// write-back latency the paper's overlap argument hides behind
// execution.
func (r *Recorder) WritebackACK(issued, done int64, addr uint32) {
	if r == nil {
		return
	}
	r.wbAcked.Inc()
	r.wbLatPS.Observe(float64(done - issued))
	r.trace.Push(Event{TS: issued, Dur: done - issued, Kind: KWBAck, A: int64(addr)})
}

// WritebackDropped records an ACK lost to fault injection.
func (r *Recorder) WritebackDropped(now int64, addr uint32) {
	if r == nil {
		return
	}
	r.wbDropped.Inc()
	r.trace.Push(Event{TS: now, Kind: KWBDrop, A: int64(addr)})
}

// DirtyDepth records the DirtyQueue occupancy after a transition; the
// distribution is the paper's waterline-hovering claim.
func (r *Recorder) DirtyDepth(now int64, depth int) {
	if r == nil {
		return
	}
	r.dqOcc.Observe(float64(depth))
	r.trace.Push(Event{TS: now, Kind: KDirty, A: int64(depth)})
}

// CheckpointDone records one JIT checkpoint window. lines < 0 means
// the design does not report flushed lines.
func (r *Recorder) CheckpointDone(start, end int64, forced bool, joules float64, lines int) {
	if r == nil {
		return
	}
	r.ckpts.Inc()
	if forced {
		r.ckptForce.Inc()
	}
	r.ckptPS.Observe(float64(end - start))
	r.ckptPJ.Observe(joules * 1e12)
	if lines >= 0 {
		r.ckptLines.Observe(float64(lines))
	}
	r.trace.Push(Event{TS: start, Dur: end - start, Kind: KCkpt,
		A: boolArg(forced), B: int64(lines), F: joules * 1e12})
}

// PowerFailure records the voltage monitor (or a fault plan, forced)
// triggering at volts.
func (r *Recorder) PowerFailure(now int64, volts float64, forced bool) {
	if r == nil {
		return
	}
	r.outages.Inc()
	r.trace.Push(Event{TS: now, Kind: KPowerFail, A: boolArg(forced), F: volts})
	r.trace.Push(Event{TS: now, Kind: KVolt, F: volts})
}

// Outage records the off-period recharge window.
func (r *Recorder) Outage(start, end int64) {
	if r == nil {
		return
	}
	r.offPS.Observe(float64(end - start))
	r.trace.Push(Event{TS: start, Dur: end - start, Kind: KOff})
}

// RestoreDone records the post-outage restore window.
func (r *Recorder) RestoreDone(start, end int64, joules float64) {
	if r == nil {
		return
	}
	r.restorePS.Observe(float64(end - start))
	r.trace.Push(Event{TS: start, Dur: end - start, Kind: KRestore, F: joules * 1e12})
}

// VoltageMark records a capacitor voltage at an outage boundary
// (reboot at Von); continuous sampling goes through VoltageGauge.
func (r *Recorder) VoltageMark(now int64, volts float64) {
	if r == nil {
		return
	}
	r.trace.Push(Event{TS: now, Kind: KVolt, F: volts})
}

// Adapt records a maxline reconfiguration (§4): boot-time (static)
// or dynamic mid-execution raise.
func (r *Recorder) Adapt(now int64, from, to int, dynamic bool) {
	if r == nil {
		return
	}
	r.adapts.Inc()
	r.Thresholds(to, to-1)
	r.trace.Push(Event{TS: now, Kind: KAdapt, A: int64(from), B: int64(to), F: float64(boolArg(dynamic))})
}

// Thresholds records the current maxline/waterline configuration.
func (r *Recorder) Thresholds(maxline, waterline int) {
	if r == nil {
		return
	}
	r.maxline.Set(float64(maxline))
	r.waterline.Set(float64(waterline))
}

// PortWait implements mem.PortObserver: one NVM access of addr waited
// `wait` ps for the single port. Synchronous waits block the core and
// feed nvm.port_wait_ps; asynchronous waits (write-backs the core does
// not wait on) are overlapped by execution and feed the informational
// nvm.port_wait_async_ps. Nonzero waits are also traced for the cycle
// ledger.
func (r *Recorder) PortWait(now, wait int64, addr uint32, write, async bool) {
	if r == nil {
		return
	}
	if async {
		r.portHiddenPS.Observe(float64(wait))
	} else {
		r.portWaitPS.Observe(float64(wait))
	}
	if wait == 0 {
		return
	}
	var flags int64
	if write {
		flags |= portFlagWrite
	}
	if async {
		flags |= portFlagAsync
	}
	r.trace.Push(Event{TS: now, Dur: wait, Kind: KPortWait, A: int64(addr), F: float64(flags)})
}

// FaultTornWrite records an injected torn NVM line write: kept of n
// words persisted.
func (r *Recorder) FaultTornWrite(now int64, addr uint32, kept, n int) {
	if r == nil {
		return
	}
	r.torn.Inc()
	r.trace.Push(Event{TS: now, Kind: KTorn, A: int64(addr), B: int64(kept), F: float64(n)})
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
