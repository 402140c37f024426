package core

import (
	"fmt"

	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/stats"
)

// Config parameterizes a WL-Cache instance.
type Config struct {
	Geometry    cache.Geometry
	Tech        cache.Tech
	CachePolicy cache.ReplacementPolicy // line eviction policy (LRU default, §6.1)
	DQPolicy    DQPolicy                // DirtyQueue cleaning policy (FIFO default)
	DQCap       int                     // hardware DirtyQueue slots (8 default)
	Maxline     int                     // initial maxline (6 default)
	Waterline   int                     // initial waterline (0 derives maxline-1)

	JIT energy.JITCosts
	// LineReserve is the energy reserved per maxline slot for JIT
	// checkpointing one cache line. It is sized for the worst case
	// (full line write at the lowest operating voltage, including
	// regulator loss), so it exceeds the typical line-write energy;
	// this is what moves Vbackup across the paper's 2.95-3.1 V range
	// as maxline changes (§5.5, Table 2).
	LineReserve float64
	// DQLeak is the leakage of the DirtyQueue + control logic (§6.2
	// reports ~0.1 mW at 90 nm).
	DQLeak float64
	// DQLRUSearchEnergy is charged per victim selection under DQLRU
	// (the policy must search the queue and the LRU state; §6.4), and
	// DQLRULeak is the extra standby power of that logic.
	DQLRUSearchEnergy float64
	DQLRULeak         float64

	Adaptive AdaptiveConfig
}

// DefaultConfig returns the paper's default WL-Cache configuration
// (§6.1): 8 KB 2-way SRAM with LRU line replacement, DirtyQueue of 8
// with FIFO cleaning, maxline 6, waterline 5, adaptation enabled.
func DefaultConfig() Config {
	return Config{
		Geometry:          cache.DefaultGeometry(),
		Tech:              cache.SRAMTech(),
		CachePolicy:       cache.LRU,
		DQPolicy:          DQFIFO,
		DQCap:             8,
		Maxline:           6,
		JIT:               energy.DefaultJITCosts(),
		LineReserve:       75e-9,
		DQLeak:            0.1e-3,
		DQLRUSearchEnergy: 60e-12,
		DQLRULeak:         0.12e-3,
		Adaptive:          DefaultAdaptiveConfig(),
	}
}

// inflightWB is an asynchronous write-back awaiting its ACK.
type inflightWB struct {
	id     uint64 // DirtyQueue entry id to remove on ACK
	addr   uint32
	issued int64 // issue time (write-back latency accounting)
	done   int64 // ACK time
}

// WLCache is the Write-Light Cache design: a volatile SRAM write-back
// cache that bounds its dirty-line population to maxline, cleans lines
// asynchronously past waterline, and JIT-checkpoints the (bounded)
// dirty set to NVM at power failure. It implements the simulator's
// Design interface.
type WLCache struct {
	cfg Config
	arr *cache.Array
	nvm *mem.NVM
	dq  *DirtyQueue

	maxline   int
	waterline int
	dirty     int // current number of dirty lines in the cache

	inflight []inflightWB // sorted by done

	adaptive *Adaptive
	// probe reports whether the capacitor can afford raising the
	// reserve to newReserve joules right now (dynamic adaptation, §4).
	probe func(newReserve float64) bool
	// ackFilter, when set, may drop write-back ACKs (fault injection).
	ackFilter func(id uint64, addr uint32) bool
	// reserveChanged, when set, tells the simulator its cached Vbackup
	// threshold is stale; fired after every maxline change.
	reserveChanged func()
	// rec, when set, records stalls, write-back issue/ACK, DirtyQueue
	// occupancy and threshold adaptation (internal/obs). nil disables
	// recording at the cost of one nil check per event site.
	rec *obs.Recorder

	// replE is cfg.Tech.ReplacementEnergy[cfg.CachePolicy], hoisted out
	// of the per-access map lookup.
	replE float64

	extra       stats.DesignExtra
	lastRestore int64 // time of the last Restore (timestamps OnBoot events)
}

// New builds a WL-Cache over the given NVM backend.
func New(cfg Config, nvm *mem.NVM) *WLCache {
	if cfg.DQCap <= 0 {
		panic("core: DQCap must be positive")
	}
	if cfg.Maxline <= 0 || cfg.Maxline > cfg.DQCap {
		panic(fmt.Sprintf("core: maxline %d out of range (1..%d)", cfg.Maxline, cfg.DQCap))
	}
	if cfg.Waterline == 0 {
		cfg.Waterline = cfg.Maxline - 1
	}
	if cfg.Waterline < 0 || cfg.Waterline > cfg.Maxline {
		panic(fmt.Sprintf("core: waterline %d out of range (0..maxline=%d)", cfg.Waterline, cfg.Maxline))
	}
	c := &WLCache{
		cfg:       cfg,
		arr:       cache.NewArray(cfg.Geometry, cfg.CachePolicy),
		nvm:       nvm,
		dq:        NewDirtyQueue(cfg.DQCap),
		maxline:   cfg.Maxline,
		waterline: cfg.Waterline,
		replE:     cfg.Tech.ReplacementEnergy[cfg.CachePolicy],
	}
	if cfg.Adaptive.Mode != AdaptOff {
		c.adaptive = NewAdaptive(cfg.Adaptive, cfg.Maxline)
	}
	c.extra.MaxlineNow = c.maxline
	c.extra.WaterlineNow = c.waterline
	return c
}

// Name identifies the design, including its policies.
func (c *WLCache) Name() string {
	return fmt.Sprintf("WL-Cache(dq=%s,cache=%s)", c.cfg.DQPolicy, c.cfg.CachePolicy)
}

// Maxline returns the current maxline threshold.
func (c *WLCache) Maxline() int { return c.maxline }

// Waterline returns the current waterline threshold.
func (c *WLCache) Waterline() int { return c.waterline }

// DirtyLines returns the current number of dirty lines.
func (c *WLCache) DirtyLines() int { return c.dirty }

// Array exposes the underlying cache array (tests and invariants).
func (c *WLCache) Array() *cache.Array { return c.arr }

// Queue exposes the DirtyQueue (tests and invariants).
func (c *WLCache) Queue() *DirtyQueue { return c.dq }

// BindEnergyProbe installs the residual-energy probe used by dynamic
// adaptation; the simulator calls this when it owns the capacitor.
func (c *WLCache) BindEnergyProbe(p func(newReserve float64) bool) { c.probe = p }

// BindReserveChanged installs the simulator's stale-threshold callback,
// invoked after every maxline change so the cached Vbackup is refreshed
// (sim.ReserveNotifyBinder).
func (c *WLCache) BindReserveChanged(f func()) { c.reserveChanged = f }

// BindObserver installs the observability recorder; the simulator
// calls this at construction when Config.Obs is set.
func (c *WLCache) BindObserver(r *obs.Recorder) {
	c.rec = r
	c.rec.Thresholds(c.maxline, c.waterline)
}

// SetACKFilter installs a fault-injection hook on the asynchronous
// write-back ACK path (§5.3 step 4): when f returns false the ACK is
// dropped — the NVM write itself completed, but the DirtyQueue entry
// is not removed and must be lazily discarded as stale by victim
// selection and checkpointing (§5.4). nil removes the hook.
func (c *WLCache) SetACKFilter(f func(id uint64, addr uint32) bool) { c.ackFilter = f }

// ReserveEnergy returns the joules that must be reserved for a JIT
// checkpoint: the fixed register/threshold cost plus maxline full-line
// NVM writes (§3.2). The simulator derives Vbackup from this.
func (c *WLCache) ReserveEnergy() float64 {
	return c.reserveFor(c.maxline)
}

func (c *WLCache) reserveFor(maxline int) float64 {
	return c.cfg.JIT.BaseReserve + float64(maxline)*c.cfg.LineReserve
}

// LeakPower returns the standby power of the SRAM array plus the
// DirtyQueue logic.
func (c *WLCache) LeakPower() float64 {
	leak := c.cfg.Tech.Leakage + c.cfg.DQLeak
	if c.cfg.DQPolicy == DQLRU {
		leak += c.cfg.DQLRULeak
	}
	return leak
}

// ExtraStats returns WL-Cache-specific counters.
func (c *WLCache) ExtraStats() stats.DesignExtra {
	e := c.extra
	e.MaxlineNow = c.maxline
	e.WaterlineNow = c.waterline
	return e
}

// Access performs one memory operation starting at time now and
// returns the loaded value (stores return val), the completion time,
// and the energy drawn, split by category.
func (c *WLCache) Access(now int64, op isa.Op, addr uint32, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, t := c.AccessEB(now, op, addr, val, &eb)
	return v, t, eb
}

// AccessEB is Access with the breakdown written into *eb instead of
// returned by value (sim.EBAccessor fast path).
func (c *WLCache) AccessEB(now int64, op isa.Op, addr uint32, val uint32, eb *energy.Breakdown) (uint32, int64) {
	c.drainACKs(now)
	eb.CacheRead += c.replE

	lineAddr := c.arr.LineAddr(addr)
	ln, hit := c.arr.Lookup(addr)
	if op == isa.OpLoad {
		if hit {
			c.arr.Touch(ln)
			eb.CacheRead += c.cfg.Tech.ReadEnergy
			return ln.Data[c.arr.WordIndex(addr)], now + c.cfg.Tech.HitLatency
		}
		t := now + c.cfg.Tech.ProbeLatency
		eb.CacheRead += c.cfg.Tech.ProbeEnergy
		ln, t = c.fill(t, lineAddr, eb)
		return ln.Data[c.arr.WordIndex(addr)], t
	}

	// Store (write-allocate, write-back).
	t := now
	if !hit {
		t += c.cfg.Tech.ProbeLatency
		eb.CacheWrite += c.cfg.Tech.ProbeEnergy
		ln, t = c.fill(t, lineAddr, eb)
	}
	if !ln.Dirty {
		// Clean->dirty transition: take a DirtyQueue slot, stalling at
		// the maxline bound (§5.1).
		t = c.ensureSlot(t, lineAddr, eb)
		// The stall may have evicted nothing, but time passed; the
		// line cannot have been evicted (no fills happen while
		// stalled), so ln remains valid.
		ln.Dirty = true
		c.dirty++
		if c.dirty > c.extra.DirtyPeak {
			c.extra.DirtyPeak = c.dirty
		}
		if c.hasLiveEntry(lineAddr) {
			c.extra.RedundantDQ++
		}
		c.dq.Push(lineAddr)
		c.rec.DirtyDepth(t, c.dirty)
	}
	ln.Data[c.arr.WordIndex(addr)] = val
	c.arr.Touch(ln)
	eb.CacheWrite += c.cfg.Tech.WriteEnergy
	t += c.cfg.Tech.WriteLatency

	// Past the waterline, clean one line asynchronously (§3.1); the
	// write-back overlaps subsequent execution (ILP).
	for c.dirty > c.waterline {
		if !c.issueWriteback(t, eb) {
			break
		}
	}
	return val, t
}

// fill brings lineAddr into the cache at time t, evicting (and
// persisting, if dirty) the victim. It returns the filled line and the
// completion time.
func (c *WLCache) fill(t int64, lineAddr uint32, eb *energy.Breakdown) (*cache.Line, int64) {
	victim := c.arr.Victim(lineAddr)
	if victim.Valid && victim.Dirty {
		vaddr := c.arr.VictimAddr(victim, lineAddr)
		done, e := c.nvm.WriteLine(t, vaddr, victim.Data)
		eb.MemWrite += e
		t = done
		c.dirty--
		c.rec.DirtyDepth(t, c.dirty)
		// The victim's DirtyQueue entry is left in place and lazily
		// discarded later (§5.4).
	}
	c.arr.Fill(victim, lineAddr)
	done, e := c.nvm.ReadLine(t, lineAddr, victim.Data)
	eb.MemRead += e
	return victim, done
}

// ensureSlot blocks (advances time) until the dirty-line count is
// below maxline and the DirtyQueue has a free hardware slot. Under
// dynamic adaptation it may instead raise maxline when the capacitor
// can afford a larger reserve (§4). lineAddr is the line the blocked
// store targets, carried onto the stall event as its correlation key.
func (c *WLCache) ensureSlot(t int64, lineAddr uint32, eb *energy.Breakdown) int64 {
	for c.dirty >= c.maxline || c.dq.Full() {
		if c.dirty >= c.maxline && !c.dq.Full() && c.tryDynamicRaise(t) {
			continue
		}
		if len(c.inflight) == 0 {
			// No write-back in flight to wait for: start one now. A
			// false return means the queue held only stale entries,
			// which selection just discarded, freeing slots.
			if !c.issueWriteback(t, eb) && c.dirty >= c.maxline {
				panic("core: dirty lines at maxline but no live DirtyQueue entry")
			}
			continue
		}
		wake := c.inflight[0].done
		if wake > t {
			c.extra.Stalls++
			c.extra.StallTime += wake - t
			c.rec.StoreStall(t, wake, lineAddr)
			t = wake
		}
		c.drainACKs(t)
	}
	return t
}

// tryDynamicRaise opportunistically raises maxline by one when the
// residual capacitor energy can afford JIT-checkpointing another line
// at time t.
func (c *WLCache) tryDynamicRaise(t int64) bool {
	if c.cfg.Adaptive.Mode != AdaptDynamic || c.probe == nil {
		return false
	}
	if c.maxline >= min(c.cfg.Adaptive.MaxMaxline, c.cfg.DQCap) {
		return false
	}
	if !c.probe(c.reserveFor(c.maxline + 1)) {
		return false
	}
	c.maxline++
	c.waterline = c.maxline - 1
	c.extra.Reconfigs++
	if c.reserveChanged != nil {
		c.reserveChanged()
	}
	c.rec.Adapt(t, c.maxline-1, c.maxline, true)
	return true
}

// issueWriteback selects a dirty line per the DirtyQueue replacement
// policy, marks it clean (step 1), and starts its asynchronous NVM
// write-back (step 2). The entry is removed only on ACK (step 4).
// It reports false when no live dirty entry exists.
func (c *WLCache) issueWriteback(t int64, eb *energy.Breakdown) bool {
	if c.cfg.DQPolicy == DQLRU {
		eb.CacheRead += c.cfg.DQLRUSearchEnergy
	}
	idx := c.selectVictim()
	if idx < 0 {
		return false
	}
	entry := &c.dq.entries[idx]
	ln, ok := c.arr.Lookup(entry.addr)
	if !ok || !ln.Dirty {
		panic("core: selected DirtyQueue victim is not dirty")
	}
	ln.Dirty = false // step 1: mark clean first (§5.3)
	c.dirty--
	done, e := c.nvm.WriteLineAsync(t, entry.addr, ln.Data) // step 2
	eb.MemWrite += e
	entry.inflight++
	c.insertInflight(inflightWB{id: entry.id, addr: entry.addr, issued: t, done: done})
	c.extra.Writebacks++
	c.rec.WritebackIssued(t, entry.addr)
	c.rec.DirtyDepth(t, c.dirty)
	return true
}

// selectVictim returns the index of the DirtyQueue entry to clean,
// discarding stale entries it encounters (§5.4). It returns -1 when
// no entry maps to a dirty line.
func (c *WLCache) selectVictim() int {
	switch c.cfg.DQPolicy {
	case DQFIFO:
		for i := 0; i < c.dq.Len(); {
			e := c.dq.entries[i]
			ln, ok := c.arr.Lookup(e.addr)
			switch {
			case ok && ln.Dirty:
				return i
			case e.inflight > 0:
				i++ // clean because a write-back is in flight; keep (§5.3)
			default:
				c.dq.removeAt(i) // stale: evicted or already persisted
				c.extra.StaleDQSkips++
			}
		}
		return -1
	case DQLRU:
		best := -1
		var bestUse uint64
		for i := 0; i < c.dq.Len(); {
			e := c.dq.entries[i]
			ln, ok := c.arr.Lookup(e.addr)
			switch {
			case ok && ln.Dirty:
				if best < 0 || ln.LastUse() < bestUse {
					best, bestUse = i, ln.LastUse()
				}
				i++
			case e.inflight > 0:
				i++
			default:
				c.dq.removeAt(i)
				c.extra.StaleDQSkips++
			}
		}
		return best
	}
	panic("core: unknown DirtyQueue policy")
}

// hasLiveEntry reports whether a DirtyQueue entry already references
// lineAddr (redundant-entry accounting, §5.3).
func (c *WLCache) hasLiveEntry(lineAddr uint32) bool {
	for _, e := range c.dq.entries {
		if e.addr == lineAddr {
			return true
		}
	}
	return false
}

func (c *WLCache) insertInflight(w inflightWB) {
	i := len(c.inflight)
	for i > 0 && c.inflight[i-1].done > w.done {
		i--
	}
	c.inflight = append(c.inflight, inflightWB{})
	copy(c.inflight[i+1:], c.inflight[i:])
	c.inflight[i] = w
}

// drainACKs completes every write-back whose ACK has arrived by time
// now, removing the matching DirtyQueue entries (step 4, §5.3). A
// dropped ACK (fault injection) leaves its entry in the queue; the
// stale-entry discard of §5.4 reclaims the slot later.
func (c *WLCache) drainACKs(now int64) {
	// Fast path (inlinable): nothing in flight, or nothing due yet.
	if len(c.inflight) == 0 || c.inflight[0].done > now {
		return
	}
	c.drainACKsSlow(now)
}

func (c *WLCache) drainACKsSlow(now int64) {
	n := 0
	for n < len(c.inflight) && c.inflight[n].done <= now {
		w := c.inflight[n]
		n++
		if c.ackFilter != nil && !c.ackFilter(w.id, w.addr) {
			c.extra.DroppedACKs++
			c.dq.ackDropped(w.id)
			c.rec.WritebackDropped(w.done, w.addr)
			continue
		}
		c.dq.RemoveID(w.id)
		c.rec.WritebackACK(w.issued, w.done, w.addr)
	}
	if n > 0 {
		// Copy-down instead of reslicing forward so the backing array is
		// reused rather than leaked one element at a time.
		m := copy(c.inflight, c.inflight[n:])
		c.inflight = c.inflight[:m]
	}
}

// Checkpoint performs the JIT checkpoint at impending power failure
// (§3.2): every live DirtyQueue entry's line is flushed to NVM; stale
// entries are skipped; entries with in-flight write-backs are
// redundantly flushed (harmless, §5.3). Registers and the threshold
// NVFFs are then persisted.
func (c *WLCache) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	c.drainACKs(now)
	t := now
	for _, e := range c.dq.entries {
		ln, ok := c.arr.Lookup(e.addr)
		switch {
		case ok && ln.Dirty:
			done, en := c.nvm.WriteLine(t, e.addr, ln.Data)
			eb.Checkpoint += en
			t = done
			ln.Dirty = false
			c.dirty--
			c.extra.CheckpointLines++
		case ok && e.inflight > 0:
			// Power failed between write-back issue and ACK: the entry
			// is still in the queue, so the line is flushed again.
			done, en := c.nvm.WriteLine(t, e.addr, ln.Data)
			eb.Checkpoint += en
			t = done
			c.extra.CheckpointLines++
		default:
			c.extra.StaleDQSkips++
		}
	}
	if c.dirty != 0 {
		panic(fmt.Sprintf("core: %d dirty lines escaped the DirtyQueue", c.dirty))
	}
	c.dq.Clear()
	c.inflight = c.inflight[:0]
	c.rec.DirtyDepth(t, 0)
	t += c.cfg.JIT.RegCheckpointTime
	eb.Checkpoint += c.cfg.JIT.RegCheckpointEnergy
	return t, eb
}

// Restore boots the system back up: the volatile SRAM comes up cold;
// registers and thresholds are restored from NVFF.
func (c *WLCache) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	c.arr.InvalidateAll()
	c.dq.Clear()
	c.inflight = c.inflight[:0]
	c.dirty = 0
	c.lastRestore = now
	c.rec.DirtyDepth(now, 0)
	eb.Restore += c.cfg.JIT.RestoreEnergy
	return now + c.cfg.JIT.RestoreTime, eb
}

// OnBoot feeds the adaptive controller the measured power-on times of
// the previous two intervals and applies the resulting thresholds
// (§4). The simulator calls this after Restore.
func (c *WLCache) OnBoot(lastOn, prevOn int64) {
	if c.adaptive == nil {
		return
	}
	newMax := c.adaptive.NextMaxline(lastOn, prevOn)
	changed := newMax != c.maxline
	if changed {
		c.extra.Reconfigs++
		c.rec.Adapt(c.lastRestore, c.maxline, newMax, false)
	}
	c.maxline = newMax
	c.waterline = newMax - 1
	// Notify after the thresholds are in place so the listener reads the
	// new ReserveEnergy, not the outgoing one.
	if changed && c.reserveChanged != nil {
		c.reserveChanged()
	}
}

// DurableEqual verifies whole-system persistence after a checkpoint:
// WL-Cache's durability lives entirely in the NVM image.
func (c *WLCache) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, c.nvm.Image(), nil)
}
