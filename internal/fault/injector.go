package fault

import (
	"sort"

	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/sim"
)

// Injector implements sim.FaultPlan plus the NVM and cache hooks for
// one run. It is single-use: build one per simulation and install it
// as Config.FaultPlan; sim.New arms it.
//
// All randomness derives from the seed via splitmix64, so identical
// (mode, seed, schedule) inputs replay identical faults.
type Injector struct {
	// AckDrop is the probability that a write-back ACK is lost
	// (ModeAckLoss). NewInjector defaults it to 0.25; tests set 1.0
	// to drop every ACK.
	AckDrop float64
	// TearAfter and TearWords shape the torn checkpoint
	// (ModeTornCkpt): the first TearAfter line flushes persist fully,
	// the next persists TearWords leading words, the rest persist
	// nothing. A negative value (the NewInjector default) draws a
	// fresh value from the seed at each forced checkpoint.
	TearAfter int
	TearWords int

	// Counters, readable after the run.
	Crashes     uint64 // forced power failures fired
	TornWrites  uint64 // line writes torn (prefix or fully lost)
	DroppedACKs uint64 // write-back ACKs suppressed

	mode Mode
	rng  uint64
	nvm  *mem.NVM
	rec  *obs.Recorder // records every torn write; nil when unrecorded

	crashTimes  []int64  // sorted; fire when now >= next
	crashInstrs []uint64 // sorted; fire when instr count >= next
	crashWrites []uint64 // sorted; fire when line-write count >= next
	ti, ii, wi  int

	inCkpt     bool
	ckptForced bool
	ckptSeen   int // line writes observed in the current forced window
	tearAfter  int // resolved TearAfter for the current window
	tearWords  int // resolved TearWords for the current window

	wbSeen uint64     // non-checkpoint line writes observed so far
	wlog   []wbRecord // in-flight write-back log (ModeTornWB)
}

// wbRecord remembers one non-checkpoint line write so a later crash
// inside its persist window can retroactively tear it.
type wbRecord struct {
	addr        uint32
	pre         []uint32 // image contents before the write
	start, done int64
}

// NewInjector builds an injector for one fault mode. The seed drives
// every random choice (ACK drops, torn-checkpoint shape).
func NewInjector(mode Mode, seed uint64) *Injector {
	return &Injector{
		mode:      mode,
		rng:       seed ^ 0x9e3779b97f4a7c15, // avoid the all-zero state
		AckDrop:   0.25,
		TearAfter: -1,
		TearWords: -1,
	}
}

// Mode returns the injection class this injector implements.
func (in *Injector) Mode() Mode { return in.mode }

// CrashAtTimes schedules forced power failures at the first
// instruction boundary at or after each time (ps).
func (in *Injector) CrashAtTimes(ts ...int64) {
	in.crashTimes = append(in.crashTimes, ts...)
	sort.Slice(in.crashTimes, func(i, j int) bool { return in.crashTimes[i] < in.crashTimes[j] })
}

// CrashAtInstrs schedules forced power failures at the boundary after
// the n-th retired instruction.
func (in *Injector) CrashAtInstrs(ns ...uint64) {
	in.crashInstrs = append(in.crashInstrs, ns...)
	sort.Slice(in.crashInstrs, func(i, j int) bool { return in.crashInstrs[i] < in.crashInstrs[j] })
}

// CrashAtLineWrites schedules forced power failures at the first
// boundary after the k-th non-checkpoint NVM line write — the boundary
// lands inside the write's persist window (line persists take far
// longer than one instruction), guaranteeing the torn-write injector
// real in-flight traffic to tear.
func (in *Injector) CrashAtLineWrites(ks ...uint64) {
	in.crashWrites = append(in.crashWrites, ks...)
	sort.Slice(in.crashWrites, func(i, j int) bool { return in.crashWrites[i] < in.crashWrites[j] })
}

// Arm installs the mode's hooks on the run's NVM and design, and
// records torn writes on rec. The torn-write modes need the NVM's
// line-write stream; ACK loss needs the design's write-back ACK filter
// (designs without an async write-back path have no ACKs to lose, and
// ModeAckLoss degenerates to ModeCrash for them).
func (in *Injector) Arm(nvm *mem.NVM, d sim.Design, rec *obs.Recorder) {
	in.nvm = nvm
	in.rec = rec
	switch in.mode {
	case ModeTornWB, ModeTornCkpt:
		nvm.SetLineWriteHook(in.onLineWrite)
	case ModeAckLoss:
		if f, ok := d.(interface {
			SetACKFilter(func(id uint64, addr uint32) bool)
		}); ok {
			f.SetACKFilter(in.onACK)
		}
	}
}

// --- sim.FaultPlan ---

// ShouldCrash fires the next scheduled crash once its time,
// instruction, or line-write trigger has been reached.
func (in *Injector) ShouldCrash(instr uint64, now int64) bool {
	if in.mode == ModeTornWB {
		in.prune(now)
	}
	fire := false
	switch {
	case in.ti < len(in.crashTimes) && now >= in.crashTimes[in.ti]:
		in.ti++
		fire = true
	case in.ii < len(in.crashInstrs) && instr >= in.crashInstrs[in.ii]:
		in.ii++
		fire = true
	case in.wi < len(in.crashWrites) && in.wbSeen >= in.crashWrites[in.wi]:
		in.wi++
		fire = true
	}
	if fire {
		in.Crashes++
	}
	return fire
}

// CheckpointStart marks the checkpoint window. For a forced crash it
// is the moment the supply actually fails: in-flight write-backs are
// torn retroactively (ModeTornWB) and the checkpoint's own flushes
// start tearing (ModeTornCkpt).
func (in *Injector) CheckpointStart(now int64, forced bool) {
	in.inCkpt = true
	in.ckptForced = forced
	in.ckptSeen = 0
	if !forced {
		return
	}
	switch in.mode {
	case ModeTornWB:
		in.tearInflight(now)
	case ModeTornCkpt:
		in.tearAfter = in.TearAfter
		in.tearWords = in.TearWords
		if in.tearAfter < 0 {
			in.tearAfter = int(in.next() % 4)
		}
		if in.tearWords < 0 {
			in.tearWords = int(in.next() % 16)
		}
	}
}

// CheckpointEnd closes the checkpoint window.
func (in *Injector) CheckpointEnd(now int64) {
	in.inCkpt = false
	in.ckptForced = false
}

// --- NVM line-write hook ---

// onLineWrite observes every full-line NVM write. Checkpoint flushes
// inside a forced window are torn forward (ModeTornCkpt); regular
// write-backs are logged with their pre-image so a crash landing in
// their persist window can tear them retroactively (ModeTornWB).
func (in *Injector) onLineWrite(w mem.LineWrite) int {
	n := len(w.Data)
	if in.inCkpt {
		if in.mode != ModeTornCkpt || !in.ckptForced {
			return n
		}
		idx := in.ckptSeen
		in.ckptSeen++
		switch {
		case idx < in.tearAfter:
			return n
		case idx == in.tearAfter:
			in.TornWrites++
			kept := min(in.tearWords, n)
			in.rec.FaultTornWrite(w.Now, w.Addr, kept, n)
			return kept
		default:
			in.TornWrites++
			in.rec.FaultTornWrite(w.Now, w.Addr, 0, n)
			return 0
		}
	}
	in.wbSeen++
	if in.mode == ModeTornWB {
		pre := make([]uint32, n)
		in.nvm.Image().ReadLine(w.Addr, pre)
		in.wlog = append(in.wlog, wbRecord{addr: w.Addr, pre: pre, start: w.Start, done: w.Done})
	}
	return n
}

// prune forgets logged writes that completed before now: once the
// array has committed the full line no crash can tear it.
func (in *Injector) prune(now int64) {
	keep := in.wlog[:0]
	for _, r := range in.wlog {
		if r.done > now {
			keep = append(keep, r)
		}
	}
	in.wlog = keep
}

// tearInflight rewinds every logged write still in flight at the
// crash time: the words the array had not yet committed revert to
// their pre-image, leaving a prorated prefix of the write. Newest
// writes revert first so overlapping writes to one line unwind in
// order.
func (in *Injector) tearInflight(tcrash int64) {
	img := in.nvm.Image()
	for i := len(in.wlog) - 1; i >= 0; i-- {
		r := in.wlog[i]
		if r.done <= tcrash {
			continue
		}
		n := len(r.pre)
		k := 0
		if r.start < tcrash && r.done > r.start {
			k = int(int64(n) * (tcrash - r.start) / (r.done - r.start))
		}
		if k > n {
			k = n
		}
		if k < n {
			in.TornWrites++
			in.rec.FaultTornWrite(tcrash, r.addr, k, n)
		}
		for j := k; j < n; j++ {
			img.Write(r.addr+uint32(4*j), r.pre[j])
		}
	}
	in.wlog = in.wlog[:0]
}

// --- write-back ACK filter ---

// onACK decides whether one write-back ACK is delivered; a dropped
// ACK strands the DirtyQueue entry for the §5.4 lazy discard.
func (in *Injector) onACK(id uint64, addr uint32) bool {
	if in.frac() < in.AckDrop {
		in.DroppedACKs++
		return false
	}
	return true
}

// next steps the splitmix64 generator.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frac returns a uniform float in [0, 1).
func (in *Injector) frac() float64 {
	return float64(in.next()>>11) / (1 << 53)
}
