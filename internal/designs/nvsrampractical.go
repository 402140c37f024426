package designs

import (
	"fmt"
	"math/bits"

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
type NVSRAMPractical struct {
	geo      cache.Geometry
	sram     cache.Tech
	nv       cache.Tech
	jit      energy.JITCosts
	params   NVSRAMParams
	nvm      *mem.NVM
	ways     []hybridWay // set-major: set s is ways[s*geo.Ways:(s+1)*geo.Ways]
	setShift uint32
	setMask  uint32
	tagShift uint32 // setShift + the set-index width, precomputed
	offMask  uint32
	clock    uint64
	extra    stats.DesignExtra
}

// hybridWay is one way of a hybrid set.
type hybridWay struct {
	tag     uint32
	valid   bool
	dirty   bool
	isNV    bool
	lastUse uint64
	data    []uint32
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
	d := &NVSRAMPractical{
		geo:    geo,
		sram:   cache.SRAMTech(),
		nv:     cache.NVRAMTech(),
		jit:    jit,
		params: params,
		nvm:    nvm,
	}
	// One slab for the ways and one for their data, as cache.NewArray
	// lays out its lines.
	lw := geo.LineWords()
	d.ways = make([]hybridWay, geo.Lines())
	slab := make([]uint32, geo.Lines()*lw)
	for i := range d.ways {
		d.ways[i].isNV = i%geo.Ways >= geo.Ways/2
		d.ways[i].data = slab[i*lw : (i+1)*lw : (i+1)*lw]
	}
	d.offMask = uint32(geo.LineBytes - 1)
	shift := uint32(0)
	for 1<<shift < geo.LineBytes {
		shift++
	}
	d.setShift = shift
	d.setMask = uint32(geo.Sets() - 1)
	d.tagShift = shift + uint32(bits.Len32(d.setMask))
	return d
}

// Name identifies the design.
func (d *NVSRAMPractical) Name() string { return "NVSRAM(practical)" }

func (d *NVSRAMPractical) setIndex(addr uint32) uint32 { return (addr >> d.setShift) & d.setMask }

func (d *NVSRAMPractical) tagOf(addr uint32) uint32 { return addr >> d.tagShift }

func (d *NVSRAMPractical) lineAddr(addr uint32) uint32 { return addr &^ d.offMask }

func (d *NVSRAMPractical) wordIndex(addr uint32) int { return int(addr&d.offMask) >> 2 }

func (d *NVSRAMPractical) addrOf(setIdx uint32, w *hybridWay) uint32 {
	return w.tag<<d.tagShift | setIdx<<d.setShift
}

// set returns the ways of set setIdx.
func (d *NVSRAMPractical) set(setIdx uint32) []hybridWay {
	return d.ways[int(setIdx)*d.geo.Ways : int(setIdx+1)*d.geo.Ways]
}

// lookup finds the way holding addr, if any.
func (d *NVSRAMPractical) lookup(addr uint32) *hybridWay {
	set := d.set(d.setIndex(addr))
	tag := d.tagOf(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return &set[w]
		}
	}
	return nil
}

// techOf returns the technology parameters for a way.
func (d *NVSRAMPractical) techOf(w *hybridWay) *cache.Tech {
	if w.isNV {
		return &d.nv
	}
	return &d.sram
}

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
	d.clock++
	if w := d.lookup(addr); w != nil {
		return d.serve(now, w, op, addr, val, eb)
	}
	// Miss: probe both banks, fill into an SRAM way.
	t := now + d.sram.ProbeLatency
	if d.nv.ProbeLatency > d.sram.ProbeLatency {
		t = now + d.nv.ProbeLatency
	}
	var one energy.Breakdown
	one.CacheRead += d.sram.ProbeEnergy + d.nv.ProbeEnergy
	w, t := d.fill(t, addr, &one)
	v, done := d.serve(t, w, op, addr, val, &one)
	eb.Add(&one)
	return v, done
}

// serve performs op on the resident way w from time t.
func (d *NVSRAMPractical) serve(t int64, w *hybridWay, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	w.lastUse = d.clock
	tech := d.techOf(w)
	if op == isa.OpLoad {
		eb.CacheRead += tech.ReadEnergy
		return w.data[d.wordIndex(addr)], t + tech.HitLatency
	}
	w.data[d.wordIndex(addr)] = val
	eb.CacheWrite += tech.WriteEnergy
	t += tech.WriteLatency
	if w.isNV {
		// A dirty NV line would block JIT checkpointing; write it back
		// eagerly (asynchronously on the NVM port) and keep it clean.
		setIdx := d.setIndex(addr)
		_, e := d.nvm.WriteLineAsync(t, d.addrOf(setIdx, w), w.data)
		eb.MemWrite += e
		w.dirty = false
		d.extra.Writebacks++
	} else {
		w.dirty = true
	}
	return val, t
}

// fill installs the line for addr into an SRAM way, migrating the
// SRAM victim into an NV way if it is dirty.
func (d *NVSRAMPractical) fill(t int64, addr uint32, eb *energy.Breakdown) (*hybridWay, int64) {
	setIdx := d.setIndex(addr)
	victim := d.pickVictim(d.set(setIdx), false)
	if victim.valid && victim.dirty {
		t = d.migrate(t, setIdx, victim, eb)
	}
	lineAddr := d.lineAddr(addr)
	done, e := d.nvm.ReadLine(t, lineAddr, victim.data)
	eb.MemRead += e
	victim.tag = d.tagOf(addr)
	victim.valid = true
	victim.dirty = false
	victim.lastUse = d.clock
	return victim, done
}

// pickVictim chooses the LRU way of the requested bank (invalid ways
// first).
func (d *NVSRAMPractical) pickVictim(set []hybridWay, nvBank bool) *hybridWay {
	var best *hybridWay
	for w := range set {
		way := &set[w]
		if way.isNV != nvBank {
			continue
		}
		if !way.valid {
			return way
		}
		if best == nil || way.lastUse < best.lastUse {
			best = way
		}
	}
	return best
}

// migrate moves a dirty SRAM line into an NV way of the same set and
// immediately persists it (keeping NV ways clean); the NV victim, if
// valid and dirty, is written back first.
func (d *NVSRAMPractical) migrate(t int64, setIdx uint32, src *hybridWay, eb *energy.Breakdown) int64 {
	dst := d.pickVictim(d.set(setIdx), true)
	if dst.valid && dst.dirty {
		done, e := d.nvm.WriteLine(t, d.addrOf(setIdx, dst), dst.data)
		eb.MemWrite += e
		t = done
	}
	// On-chip SRAM->NV copy.
	t += d.params.LineCheckpointTime
	eb.CacheWrite += d.params.LineCheckpointEnergy
	copy(dst.data, src.data)
	dst.tag = src.tag
	dst.valid = true
	dst.lastUse = d.clock
	// Persist the migrated line so the NV way stays clean.
	done, e := d.nvm.WriteLine(t, d.addrOf(setIdx, dst), dst.data)
	eb.MemWrite += e
	dst.dirty = false
	src.valid = false
	src.dirty = false
	d.extra.Writebacks++
	return done
}

// Checkpoint migrates every remaining dirty SRAM line into an NV way.
func (d *NVSRAMPractical) Checkpoint(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	for i := range d.ways {
		if way := &d.ways[i]; way.valid && way.dirty && !way.isNV {
			t = d.checkpointMigrate(t, uint32(i/d.geo.Ways), way, &eb)
			d.extra.CheckpointLines++
		}
	}
	t += d.jit.RegCheckpointTime
	eb.Checkpoint += d.jit.RegCheckpointEnergy
	return t, eb
}

// checkpointMigrate copies a dirty SRAM line into a clean NV way
// under checkpoint power (no time for a main-NVM write: the NV copy
// itself is durable, so the NV line stays dirty with respect to NVM).
func (d *NVSRAMPractical) checkpointMigrate(t int64, setIdx uint32, src *hybridWay, eb *energy.Breakdown) int64 {
	dst := d.pickVictim(d.set(setIdx), true)
	if dst.valid && dst.dirty {
		// The runtime policy keeps NV lines clean, so this only
		// happens if a previous checkpoint parked a line here; push it
		// out to NVM first (covered by the reserve).
		done, e := d.nvm.WriteLine(t, d.addrOf(setIdx, dst), dst.data)
		eb.Checkpoint += e
		t = done
	}
	t += d.params.LineCheckpointTime
	eb.Checkpoint += d.params.LineCheckpointEnergy
	copy(dst.data, src.data)
	dst.tag = src.tag
	dst.valid = true
	dst.dirty = true // differs from main NVM; durable via the NV cell
	dst.lastUse = d.clock
	src.valid = false
	src.dirty = false
	return t
}

// Restore keeps NV ways (non-volatile), drops SRAM ways, and writes
// back any dirty NV lines parked by the checkpoint to re-establish
// clean-NV headroom.
func (d *NVSRAMPractical) Restore(now int64) (int64, energy.Breakdown) {
	var eb energy.Breakdown
	t := now
	for i := range d.ways {
		way := &d.ways[i]
		if !way.isNV {
			way.valid = false
			way.dirty = false
			continue
		}
		if way.valid && way.dirty {
			done, e := d.nvm.WriteLine(t, d.addrOf(uint32(i/d.geo.Ways), way), way.data)
			eb.Restore += e
			way.dirty = false
			t = done
		}
	}
	t += d.jit.RestoreTime
	eb.Restore += d.jit.RestoreEnergy
	return t, eb
}

// ReserveEnergy covers the SRAM half of the cache (medium, Table 1):
// on-chip migrations plus the worst-case NV push-outs.
func (d *NVSRAMPractical) ReserveEnergy() float64 {
	sramLines := float64(d.geo.Lines() / 2)
	return d.jit.BaseReserve + sramLines*d.params.LineReserve
}

// LeakPower is half SRAM, half NV-array leakage.
func (d *NVSRAMPractical) LeakPower() float64 {
	return d.sram.Leakage/2 + d.nv.Leakage/2
}

// ExtraStats returns migration/checkpoint counters.
func (d *NVSRAMPractical) ExtraStats() stats.DesignExtra { return d.extra }

// DurableEqual overlays the non-volatile ways onto the NVM image (the
// SRAM ways are volatile and must not be needed).
func (d *NVSRAMPractical) DurableEqual(golden *mem.Store) error {
	view := d.nvm.Image().Clone()
	for i := range d.ways {
		if way := &d.ways[i]; way.valid && way.isNV {
			view.WriteLine(d.addrOf(uint32(i/d.geo.Ways), way), way.data)
		}
	}
	if diff := golden.FirstDiff(view); diff != "" {
		return fmt.Errorf("durable state diverged from architectural state: %s", diff)
	}
	return nil
}
