package designs

import (
	"fmt"

	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/stats"
)

// NVSRAMPractical is the hybrid NVSRAMCache (Xie et al. [72, 73],
// §2.3.3 "practical" variant): each set holds both SRAM ways and
// non-volatile ways. New lines fill into SRAM; dirty SRAM victims
// migrate into an NV way of the same set; dirty NV lines are eagerly
// written back to main NVM at runtime so that clean NV ways are
// always available as JIT-checkpoint targets. At power failure the
// remaining dirty SRAM lines are moved into NV ways; NV contents
// survive, so the cache restores half-warm.
//
// Compared to the ideal variant it needs only a medium reserve (the
// SRAM ways, not the whole cache) and no same-size twin — but data
// living in NV ways is slow and expensive to access, and the eager NV
// write-backs add main-memory traffic, which is why the paper ranks
// its performance "Medium" (Table 1).
//
// The two kinds of way are two LRU banks of the same sets, each with
// half the ways; a line lives in at most one of them.
type NVSRAMPractical struct {
	sram, nv         *cache.Array
	sramTech, nvTech cache.Tech
	jit              energy.JITCosts
	params           NVSRAMParams
	nvm              *mem.NVM
	extra            stats.DesignExtra
}

// NewNVSRAMPractical builds the hybrid design; geo.Ways is split
// evenly between SRAM and NV ways (geo.Ways must be even).
func NewNVSRAMPractical(geo cache.Geometry, jit energy.JITCosts, params NVSRAMParams, nvm *mem.NVM) *NVSRAMPractical {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if geo.Ways%2 != 0 {
		panic(fmt.Sprintf("designs: NVSRAM(practical) needs an even way count, got %d", geo.Ways))
	}
	bank := cache.Geometry{SizeBytes: geo.SizeBytes / 2, Ways: geo.Ways / 2, LineBytes: geo.LineBytes}
	return &NVSRAMPractical{
		sram:     cache.NewArray(bank, cache.LRU),
		nv:       cache.NewArray(bank, cache.LRU),
		sramTech: cache.SRAMTech(),
		nvTech:   cache.NVRAMTech(),
		jit:      jit,
		params:   params,
		nvm:      nvm,
	}
}

// Name identifies the design.
func (d *NVSRAMPractical) Name() string { return "NVSRAM(practical)" }

// Access serves one memory operation.
func (d *NVSRAMPractical) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	v, done := d.AccessEB(now, op, addr, val, &eb)
	return v, done, eb
}

// AccessEB is the pointer-breakdown fast path (sim.EBAccessor). A hit
// adds at most one term to each field of *eb. A miss sums its terms
// from zero and adds the sum to *eb once, so that on the fast tier,
// where *eb holds the open window's running totals, every field
// associates as the window.Add(&one) that recorded this
// design's results did.
func (d *NVSRAMPractical) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	if ln, hit := d.sram.Lookup(addr); hit {
		d.sram.Touch(ln)
		return d.serve(now, ln, false, op, addr, val, eb)
	}
	if ln, hit := d.nv.Lookup(addr); hit {
		d.nv.Touch(ln)
		return d.serve(now, ln, true, op, addr, val, eb)
	}
	// Miss: probe both banks, fill into an SRAM way.
	t := now + max(d.sramTech.ProbeLatency, d.nvTech.ProbeLatency)
	var one energy.Breakdown
	one.CacheRead += d.sramTech.ProbeEnergy + d.nvTech.ProbeEnergy
	ln, t := d.fill(t, addr, &one)
	v, done := d.serve(t, ln, false, op, addr, val, &one)
	eb.Add(&one)
	return v, done
}

// serve performs op on the resident line ln (of the NV bank if nv)
// from time t.
func (d *NVSRAMPractical) serve(t int64, ln *cache.Line, nv bool, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	tech := &d.sramTech
	if nv {
		tech = &d.nvTech
	}
	if op == isa.OpLoad {
		eb.CacheRead += tech.ReadEnergy
		return ln.Data[d.sram.WordIndex(addr)], t + tech.HitLatency
	}
	ln.Data[d.sram.WordIndex(addr)] = val
	eb.CacheWrite += tech.WriteEnergy
	t += tech.WriteLatency
	if nv {
		// A dirty NV line would block JIT checkpointing; write it back
		// eagerly (asynchronously on the NVM port) and keep it clean.
		_, e := d.nvm.WriteLineAsync(t, d.nv.LineAddr(addr), ln.Data)
		eb.MemWrite += e
		ln.Dirty = false
		d.extra.Writebacks++
	} else {
		ln.Dirty = true
	}
	return val, t
}

// fill installs the line for addr into an SRAM way. A dirty SRAM
// victim first migrates into an NV way of the same set and is
// persisted at once, keeping the NV way clean.
func (d *NVSRAMPractical) fill(t int64, addr uint32, eb *energy.Breakdown) (*cache.Line, int64) {
	lineAddr := d.sram.LineAddr(addr)
	victim := d.sram.Victim(lineAddr)
	if victim.Valid && victim.Dirty {
		vaddr := d.sram.VictimAddr(victim, lineAddr)
		dst, tc, pushE := d.toNV(t, vaddr, victim)
		eb.MemWrite += pushE
		eb.CacheWrite += d.params.LineCheckpointEnergy
		done, e := d.nvm.WriteLine(tc, vaddr, dst.Data)
		eb.MemWrite += e
		t = done
		d.extra.Writebacks++
	}
	d.sram.Fill(victim, lineAddr)
	done, e := d.nvm.ReadLine(t, lineAddr, victim.Data)
	eb.MemRead += e
	return victim, done
}

// toNV moves the SRAM line src, whose address is addr, into the NV
// bank's victim way by an on-chip copy. A dirty NV victim is pushed
// out to NVM first; pushE is that write's energy (0 without one). It
// returns the NV line and when the copy is done.
func (d *NVSRAMPractical) toNV(t int64, addr uint32, src *cache.Line) (dst *cache.Line, done int64, pushE float64) {
	dst = d.nv.Victim(addr)
	if dst.Valid && dst.Dirty {
		t, pushE = d.nvm.WriteLine(t, d.nv.VictimAddr(dst, addr), dst.Data)
	}
	d.nv.Fill(dst, addr)
	copy(dst.Data, src.Data)
	src.Valid, src.Dirty = false, false
	return dst, t + d.params.LineCheckpointTime, pushE
}

// Checkpoint moves every remaining dirty SRAM line into an NV way
// under checkpoint power. There is no time for a main-NVM write: the
// NV copy itself is durable, so it stays dirty with respect to NVM.
// The runtime policy keeps NV lines clean, so a push-out (covered by
// the reserve) happens only if a previous checkpoint parked a line in
// the victim way.
func (d *NVSRAMPractical) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	d.sram.ForEachLine(func(addr uint32, ln *cache.Line) {
		if !ln.Dirty {
			return
		}
		dst, done, pushE := d.toNV(t, addr, ln)
		eb.Checkpoint += pushE
		eb.Checkpoint += d.params.LineCheckpointEnergy
		dst.Dirty = true
		t = done
		d.extra.CheckpointLines++
	})
	t += d.jit.RegCheckpointTime
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return t, eb
}

// Restore keeps the NV bank (non-volatile), drops the SRAM bank, and
// writes back any dirty NV lines parked by the checkpoint to
// re-establish clean-NV headroom.
func (d *NVSRAMPractical) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	d.sram.InvalidateAll()
	d.nv.ForEachLine(func(addr uint32, ln *cache.Line) {
		if ln.Dirty {
			done, e := d.nvm.WriteLine(t, addr, ln.Data)
			eb.Restore += e
			ln.Dirty = false
			t = done
		}
	})
	t += d.jit.RestoreTime
	eb.Restore += d.jit.RestoreEnergy
	return t, eb
}

// ReserveEnergy covers the SRAM half of the cache (medium, Table 1):
// on-chip migrations plus the worst-case NV push-outs.
func (d *NVSRAMPractical) ReserveEnergy() float64 {
	sramLines := float64(d.sram.Geometry().Lines())
	return d.jit.BaseReserve + sramLines*d.params.LineReserve
}

// LeakPower is half SRAM, half NV-array leakage.
func (d *NVSRAMPractical) LeakPower() float64 {
	return d.sramTech.Leakage/2 + d.nvTech.Leakage/2
}

// ExtraStats returns migration/checkpoint counters.
func (d *NVSRAMPractical) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual overlays the NV bank onto the NVM image (the SRAM bank
// is volatile and must not be needed).
func (d *NVSRAMPractical) DurableEqual(golden *mem.Store) error {
	return cache.DurableEqual(golden, d.nvm.Image(), d.nv)
}
