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
	sets     []hybridSet
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

type hybridSet struct {
	ways []hybridWay
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
	d.sets = make([]hybridSet, geo.Sets())
	for s := range d.sets {
		ways := make([]hybridWay, geo.Ways)
		for w := range ways {
			ways[w].isNV = w >= geo.Ways/2
			ways[w].data = make([]uint32, geo.LineWords())
		}
		d.sets[s].ways = ways
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

// lookup finds the way holding addr, if any.
func (d *NVSRAMPractical) lookup(addr uint32) *hybridWay {
	set := &d.sets[d.setIndex(addr)]
	tag := d.tagOf(addr)
	for w := range set.ways {
		if set.ways[w].valid && set.ways[w].tag == tag {
			return &set.ways[w]
		}
	}
	return nil
}

// techOf returns the technology parameters for a way.
func (d *NVSRAMPractical) techOf(w *hybridWay) cache.Tech {
	if w.isNV {
		return d.nv
	}
	return d.sram
}

// Access serves one memory operation.
func (d *NVSRAMPractical) Access(now int64, op isa.Op, addr, val uint32) (uint32, int64, energy.Breakdown) {
	var eb energy.Breakdown
	d.clock++
	w := d.lookup(addr)
	t := now
	if w == nil {
		// Miss: probe both banks, fill into an SRAM way.
		t += d.sram.ProbeLatency
		if d.nv.ProbeLatency > d.sram.ProbeLatency {
			t = now + d.nv.ProbeLatency
		}
		eb.CacheRead += d.sram.ProbeEnergy + d.nv.ProbeEnergy
		w, t = d.fill(t, addr, &eb)
	}
	w.lastUse = d.clock
	tech := d.techOf(w)
	if op == isa.OpLoad {
		eb.CacheRead += tech.ReadEnergy
		return w.data[d.wordIndex(addr)], t + tech.HitLatency, eb
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
	return val, t, eb
}

// fill installs the line for addr into an SRAM way, migrating the
// SRAM victim into an NV way if it is dirty.
func (d *NVSRAMPractical) fill(t int64, addr uint32, eb *energy.Breakdown) (*hybridWay, int64) {
	setIdx := d.setIndex(addr)
	set := &d.sets[setIdx]
	victim := d.pickVictim(set, false)
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
func (d *NVSRAMPractical) pickVictim(set *hybridSet, nvBank bool) *hybridWay {
	var best *hybridWay
	for w := range set.ways {
		way := &set.ways[w]
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
	set := &d.sets[setIdx]
	dst := d.pickVictim(set, true)
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
	for s := range d.sets {
		set := &d.sets[s]
		for w := range set.ways {
			way := &set.ways[w]
			if way.valid && way.dirty && !way.isNV {
				t = d.checkpointMigrate(t, uint32(s), way, &eb)
				d.extra.CheckpointLines++
			}
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
	set := &d.sets[setIdx]
	dst := d.pickVictim(set, true)
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
	for s := range d.sets {
		set := &d.sets[s]
		for w := range set.ways {
			way := &set.ways[w]
			if !way.isNV {
				way.valid = false
				way.dirty = false
				continue
			}
			if way.valid && way.dirty {
				done, e := d.nvm.WriteLine(t, d.addrOf(uint32(s), way), way.data)
				eb.Restore += e
				way.dirty = false
				t = done
			}
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
	for s := range d.sets {
		set := &d.sets[s]
		for w := range set.ways {
			way := &set.ways[w]
			if way.valid && way.isNV {
				view.WriteLine(d.addrOf(uint32(s), way), way.data)
			}
		}
	}
	if diff := golden.FirstDiff(view); diff != "" {
		return fmt.Errorf("durable state diverged from architectural state: %s", diff)
	}
	return nil
}
