package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Kind identifies one typed trace event. Events carry only numeric
// payloads (A, B, F) so pushing one never allocates; the meaning of
// the payload fields is per-kind and resolved at export time.
type Kind uint8

// The event taxonomy (DESIGN.md §9).
const (
	// KStall: a store stalled at the maxline bound (or the analogous
	// write-buffer/region bound of a baseline design). TS..TS+Dur is
	// the stall window, A the line address being stored, B the program
	// counter of the memory operation (0 when unknown).
	KStall Kind = iota + 1
	// KWBIssue: an asynchronous write-back was issued. A = line addr.
	KWBIssue
	// KWBAck: a write-back ACK arrived. TS is the issue time, Dur the
	// NVM latency (ACK - issue), A the line addr.
	KWBAck
	// KWBDrop: a write-back ACK was dropped (fault injection). A =
	// line addr.
	KWBDrop
	// KCkpt: one JIT checkpoint. TS..TS+Dur is the checkpoint window,
	// A = 1 when forced by a fault plan, B = dirty lines flushed (-1
	// when the design does not report them), F = energy in pJ.
	KCkpt
	// KPowerFail: the voltage monitor (or a fault plan, A = 1) fired.
	// F is the capacitor voltage.
	KPowerFail
	// KOff: the recharge window between power collapse and reboot.
	KOff
	// KRestore: the post-outage restore window. F = energy in pJ.
	KRestore
	// KAdapt: a maxline reconfiguration. A = old maxline, B = new,
	// F = 1 for a dynamic (mid-execution) raise, 0 for a boot-time
	// adaptation.
	KAdapt
	// KDirty: DirtyQueue occupancy changed. A = dirty lines now.
	KDirty
	// KVolt: a capacitor voltage mark at an outage boundary. F = V.
	KVolt
	// KTorn: fault injection tore an NVM line write. A = line addr,
	// B = words persisted out of F total words.
	KTorn
	// KPortWait: an NVM access waited TS..TS+Dur for the single port.
	// A = target address, B = the program counter of the memory
	// operation in flight (0 when unknown), F = flag bits (bit 0:
	// write path, bit 1: asynchronous — the wait was overlapped by
	// execution rather than blocking the core). Zero-length waits are
	// not recorded.
	KPortWait
)

// KPortWait flag bits carried in Event.F.
const (
	portFlagWrite = 1 << iota
	portFlagAsync
)

// kindMeta maps a Kind to its Chrome trace_event rendering: the event
// name, the phase ("X" complete, "i" instant, "C" counter) and the
// track (tid) it lands on.
var kindMeta = [...]struct {
	name string
	ph   string
	tid  int
}{
	KStall:     {"store-stall", "X", tidCore},
	KWBIssue:   {"wb-issue", "i", tidWB},
	KWBAck:     {"writeback", "X", tidWB},
	KWBDrop:    {"wb-ack-dropped", "i", tidWB},
	KCkpt:      {"checkpoint", "X", tidPower},
	KPowerFail: {"power-failure", "i", tidPower},
	KOff:       {"off", "X", tidPower},
	KRestore:   {"restore", "X", tidPower},
	KAdapt:     {"adapt", "i", tidCore},
	KDirty:     {"dirty-lines", "C", tidCore},
	KVolt:      {"voltage", "C", tidPower},
	KTorn:      {"torn-write", "i", tidFault},
	KPortWait:  {"port-wait", "X", tidNVM},
}

// The timeline tracks of the Chrome export.
const (
	tidCore = iota + 1
	tidWB
	tidPower
	tidFault
	tidNVM
)

var tidNames = map[int]string{
	tidCore:  "core",
	tidWB:    "writeback",
	tidPower: "power",
	tidFault: "fault",
	tidNVM:   "nvm-port",
}

// Event is one trace record. TS and Dur are simulated picoseconds.
type Event struct {
	TS   int64
	Dur  int64
	Kind Kind
	A    int64
	B    int64
	F    float64
}

// Trace is a fixed-capacity ring buffer of events: pushing past the
// capacity overwrites the oldest record, so a long run keeps its most
// recent window and the export stays bounded.
type Trace struct {
	buf    []Event
	next   int
	pushed uint64
}

// DefaultEventCap is the ring capacity NewRecorder uses when none is
// given: 1 Mi events (~48 MB), big enough that smoke-scale runs drop
// nothing, since dropped events directly reduce ledger coverage.
const DefaultEventCap = 1 << 20

// NewTrace returns a ring of the given capacity (DefaultEventCap when
// capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Push appends one event, overwriting the oldest past capacity.
// Nil-safe: a nil trace drops the event.
func (t *Trace) Push(e Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % len(t.buf)
	}
	t.pushed++
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Pushed returns the total number of events ever pushed.
func (t *Trace) Pushed() uint64 {
	if t == nil {
		return 0
	}
	return t.pushed
}

// Dropped returns how many events the ring overwrote.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.pushed - uint64(len(t.buf))
}

// Events returns the retained events in push order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// TraceEvent is one trace_event record in Chrome's JSON array format
// (chrome://tracing, Perfetto). Timestamps and durations are
// microseconds. Phase is "X" (complete), "i" (instant), "C" (counter)
// or "M" (metadata).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const psPerUS = 1e6

// WriteTraceEvents writes a Chrome trace_event JSON document:
// process/thread metadata built from processName and threadNames,
// followed by the given events. The sweep service reuses this for its
// request-level cell spans, so service traces and simulator traces
// load into the same tooling.
func WriteTraceEvents(w io.Writer, processName string, threadNames map[int]string, events []TraceEvent) error {
	out := make([]TraceEvent, 0, len(events)+1+len(threadNames))
	out = append(out, TraceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": processName},
	})
	tids := make([]int, 0, len(threadNames))
	for tid := range threadNames {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": threadNames[tid]},
		})
	}
	out = append(out, events...)
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     out,
	})
}

// WriteChrome exports the retained events as a Chrome trace_event
// JSON object. meta labels the process so multiple runs can be merged
// into one timeline.
func (t *Trace) WriteChrome(w io.Writer, meta RunMeta) error {
	evs := t.Events()
	out := make([]TraceEvent, 0, len(evs))
	for _, e := range evs {
		if int(e.Kind) >= len(kindMeta) || kindMeta[e.Kind].name == "" {
			continue
		}
		km := kindMeta[e.Kind]
		ce := TraceEvent{
			Name: km.name, Cat: "wlcache", Ph: km.ph, PID: 1, TID: km.tid,
			TS: float64(e.TS) / psPerUS,
		}
		if km.ph == "X" {
			ce.Dur = float64(e.Dur) / psPerUS
		}
		ce.Args = chromeArgs(e)
		out = append(out, ce)
	}
	name := fmt.Sprintf("%s / %s / %s", meta.Design, meta.Workload, meta.Trace)
	return WriteTraceEvents(w, name, tidNames, out)
}

// chromeArgs renders the per-kind payload fields.
func chromeArgs(e Event) map[string]any {
	switch e.Kind {
	case KWBIssue, KWBAck, KWBDrop:
		return map[string]any{"addr": fmt.Sprintf("%#x", uint32(e.A))}
	case KCkpt:
		return map[string]any{"forced": e.A == 1, "lines": e.B, "energy_pj": e.F}
	case KPowerFail:
		return map[string]any{"forced": e.A == 1, "voltage_v": e.F}
	case KRestore:
		return map[string]any{"energy_pj": e.F}
	case KAdapt:
		return map[string]any{"from": e.A, "to": e.B, "dynamic": e.F == 1}
	case KDirty:
		return map[string]any{"dirty": e.A}
	case KVolt:
		return map[string]any{"v": e.F}
	case KTorn:
		return map[string]any{"addr": fmt.Sprintf("%#x", uint32(e.A)), "kept": e.B, "of": e.F}
	case KStall:
		return map[string]any{"addr": fmt.Sprintf("%#x", uint32(e.A)), "pc": fmt.Sprintf("%#x", uint64(e.B))}
	case KPortWait:
		flags := int64(e.F)
		return map[string]any{
			"addr":  fmt.Sprintf("%#x", uint32(e.A)),
			"pc":    fmt.Sprintf("%#x", uint64(e.B)),
			"write": flags&portFlagWrite != 0,
			"async": flags&portFlagAsync != 0,
		}
	}
	return nil
}
