package designs

import (
	"fmt"

	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/obs"
	"wlcache/internal/stats"
)

// WTBufferParams sizes the §3.3 alternative design.
type WTBufferParams struct {
	// Slots is the write-buffer depth (the paper's discussion pits an
	// 8-slot buffer against the 8-entry DirtyQueue).
	Slots int
	// CAMSearchLatency/Energy are paid by EVERY load: the buffer must
	// be searched before memory can answer (§3.3 issue 3: "the
	// write-back buffer must be consulted before accessing memory").
	CAMSearchLatency int64
	CAMSearchEnergy  float64
	// WordReserve is the worst-case JIT energy to flush one buffered
	// word at power failure (§3.3 issue 2).
	WordReserve float64
	// Leak is the CAM's standby power (§3.3 issue 1: CAM cost).
	Leak float64
}

// DefaultWTBufferParams returns an 8-slot CAM write buffer.
func DefaultWTBufferParams() WTBufferParams {
	return WTBufferParams{
		Slots:            8,
		CAMSearchLatency: 300, // 0.3 ns parallel match
		CAMSearchEnergy:  8e-12,
		WordReserve:      40e-9,
		Leak:             0.25e-3,
	}
}

// wtBufEntry is one buffered store.
type wtBufEntry struct {
	addr uint32
	val  uint32
	done int64 // when the NVM write completes and frees the slot
}

// WTBuffer is the alternative design the paper's §3.3 discussion
// rejects: a write-through volatile cache whose stores go through a
// small write buffer that drains to NVM asynchronously. It behaves a
// lot like WL-Cache — bounded volatile state, asynchronous persists —
// but (1) the buffer needs a CAM that every load must search, adding
// to the load critical path; (2) each slot holds one *word*, so the
// buffer coalesces nothing; and (3) the reserve must cover the whole
// buffer. Implemented so the §3.3 claim can be measured instead of
// taken on faith (experiment id "sec33").
type WTBuffer struct {
	wtCache
	// Past the buffer flush, the JIT checkpoint saves registers only,
	// and the cache comes up cold after every outage.
	regJIT
	params WTBufferParams
	buf    []wtBufEntry
	extra  stats.DesignExtra
	rec    *obs.Recorder
}

// BindObserver wires the recorder so buffer-full stalls land on the
// event timeline (sim.ObserverBinder).
func (d *WTBuffer) BindObserver(r *obs.Recorder) { d.rec = r }

// NewWTBuffer builds the write-through + write-buffer design. It
// panics on a buffer with no slots (a configuration bug).
func NewWTBuffer(geo cache.Geometry, tech cache.Tech, pol cache.ReplacementPolicy, jit energy.JITCosts, params WTBufferParams, nvm *mem.NVM) *WTBuffer {
	if params.Slots <= 0 {
		panic(fmt.Sprintf("designs: VCache-WT+buf needs at least one buffer slot, got %d", params.Slots))
	}
	return &WTBuffer{wtCache: newWTCache(geo, tech, pol, nvm), regJIT: regJIT{jit}, params: params}
}

// Name identifies the design.
func (d *WTBuffer) Name() string { return "VCache-WT+buf" }

// drain removes completed buffer entries. The single NVM port
// serializes writes, so buf's done times are non-decreasing in issue
// order and the completed entries are a prefix.
func (d *WTBuffer) drain(now int64) {
	if len(d.buf) == 0 || d.buf[0].done > now {
		return
	}
	n := 1
	for n < len(d.buf) && d.buf[n].done <= now {
		n++
	}
	d.buf = d.buf[:copy(d.buf, d.buf[n:])]
}

// Access serves loads from cache (after the mandatory CAM search) and
// queues stores into the buffer.
func (d *WTBuffer) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor).
func (d *WTBuffer) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	d.drain(now)
	eb.CacheRead += d.replE

	if op == isa.OpLoad {
		// Every load searches the CAM first (§3.3): the youngest
		// matching entry forwards its value.
		t := now + d.params.CAMSearchLatency
		eb.CacheRead += d.params.CAMSearchEnergy
		for i := len(d.buf) - 1; i >= 0; i-- {
			if d.buf[i].addr == addr {
				return d.buf[i].val, t + d.tech.HitLatency
			}
		}
		ln, done, filled := d.load(t, addr, eb)
		if filled {
			// Merge any buffered (not yet drained) stores into the
			// fill so the cached copy is coherent with program order.
			lineAddr := d.arr.LineAddr(addr)
			for _, be := range d.buf {
				if d.arr.LineAddr(be.addr) == lineAddr {
					ln.Data[d.arr.WordIndex(be.addr)] = be.val
				}
			}
		}
		return ln.Data[d.arr.WordIndex(addr)], done
	}

	// Store: update the cached copy on a hit, then take a buffer slot,
	// stalling when the buffer is full.
	t := d.update(now, addr, val, eb)
	if len(d.buf) >= d.params.Slots {
		// Wait for the oldest in-flight write to finish.
		oldest := d.buf[0].done
		if oldest > t {
			d.extra.Stalls++
			d.extra.StallTime += oldest - t
			d.rec.StoreStall(t, oldest, d.arr.LineAddr(addr))
			t = oldest
		}
		d.drain(t)
	}
	done, e := d.nvm.WriteWordAsync(t, addr, val)
	eb.MemWrite += e
	d.buf = append(d.buf, wtBufEntry{addr: addr, val: val, done: done})
	d.extra.Writebacks++
	return val, t
}

// Checkpoint flushes the buffer (its writes were already issued to
// the port; the reserve guarantees they complete) plus registers.
func (d *WTBuffer) Checkpoint(now int64) (int64, energy.Breakdown) {
	t := now
	if n := len(d.buf); n > 0 {
		last := d.buf[n-1].done
		if last > t {
			t = last
		}
		d.buf = d.buf[:0]
	}
	return d.regJIT.Checkpoint(t)
}

// Restore boots with a cold cache and an empty buffer.
func (d *WTBuffer) Restore(now int64) (int64, energy.Breakdown) {
	d.arr.InvalidateAll()
	d.buf = d.buf[:0]
	return d.regJIT.Restore(now)
}

// ReserveEnergy must cover flushing every buffer slot (§3.3 issue 2).
func (d *WTBuffer) ReserveEnergy() float64 {
	return d.jit.BaseReserve + float64(d.params.Slots)*d.params.WordReserve
}

// LeakPower is the SRAM array plus the CAM.
func (d *WTBuffer) LeakPower() float64 { return d.tech.Leakage + d.params.Leak }

// ExtraStats returns buffer counters.
func (d *WTBuffer) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual: writes reach the NVM image at issue, so the image
// alone must match after the checkpoint drained the buffer.
func (d *WTBuffer) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), nil)
}
