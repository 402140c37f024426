package designs

import (
	"wlcache/internal/cache"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// wbCache is the conventional write-back, write-allocate access logic
// shared by NVCache-WB, the NVSRAM twins, EagerWB, ReplayCache and the
// broken volatile control. Dirty victims are written back to NVM on
// eviction; stores dirty the line and stay in the cache.
type wbCache struct {
	arr   *cache.Array
	tech  cache.Tech
	nvm   *mem.NVM
	replE float64 // tech.ReplacementEnergy[policy], hoisted off the access path
}

func newWBCache(geo cache.Geometry, tech cache.Tech, pol cache.ReplacementPolicy, nvm *mem.NVM) wbCache {
	return wbCache{
		arr:   cache.NewArray(geo, pol),
		tech:  tech,
		nvm:   nvm,
		replE: tech.ReplacementEnergy[pol],
	}
}

// Array exposes the cache array for tests.
func (c *wbCache) Array() *cache.Array { return c.arr }

// AccessEB performs one conventional write-back access. The designs
// that embed wbCache promote it as their sim.EBAccessor method.
func (c *wbCache) AccessEB(now int64, op isa.Op, addr, val uint32, eb *energy.Breakdown) (uint32, int64) {
	eb.CacheRead += c.replE
	lineAddr := c.arr.LineAddr(addr)
	ln, hit := c.arr.Lookup(addr)
	t := now
	if !hit {
		t += c.tech.ProbeLatency
		eb.CacheRead += c.tech.ProbeEnergy
		ln, t = c.fill(t, lineAddr, eb)
	}
	c.arr.Touch(ln)
	if op == isa.OpLoad {
		eb.CacheRead += c.tech.ReadEnergy
		if hit {
			t += c.tech.HitLatency
		}
		return ln.Data[c.arr.WordIndex(addr)], t
	}
	ln.Data[c.arr.WordIndex(addr)] = val
	ln.Dirty = true
	eb.CacheWrite += c.tech.WriteEnergy
	t += c.tech.WriteLatency
	return val, t
}

// fill loads lineAddr into the array, persisting a dirty victim first.
func (c *wbCache) fill(t int64, lineAddr uint32, eb *energy.Breakdown) (*cache.Line, int64) {
	victim := c.arr.Victim(lineAddr)
	if victim.Valid && victim.Dirty {
		vaddr := c.arr.VictimAddr(victim, lineAddr)
		done, e := c.nvm.WriteLine(t, vaddr, victim.Data)
		eb.MemWrite += e
		t = done
	}
	c.arr.Fill(victim, lineAddr)
	done, e := c.nvm.ReadLine(t, lineAddr, victim.Data)
	eb.MemRead += e
	return victim, done
}
