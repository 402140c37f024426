// Package expt wires workloads, cache designs, power traces and the
// simulator together, and reproduces every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index).
package expt

import (
	"fmt"
	"slices"
	"strings"

	"wlcache/internal/cache"
	"wlcache/internal/core"
	"wlcache/internal/designs"
	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// Kind names a cache design configuration.
type Kind string

// The design kinds of the evaluation (§6.1).
const (
	KindNoCache  Kind = "nocache"
	KindVCacheWT Kind = "vcache-wt"
	KindNVCache  Kind = "nvcache-wb"
	KindNVSRAM   Kind = "nvsram"
	// KindNVSRAMFull and KindNVSRAMPractical are the other two NVSRAM
	// variants of §2.3.3 (Table 1 rows).
	KindNVSRAMFull      Kind = "nvsram-full"
	KindNVSRAMPractical Kind = "nvsram-practical"
	// KindWTBuffer is the §3.3 alternative: write-through cache with a
	// CAM-searched write buffer.
	KindWTBuffer Kind = "wt-buffer"
	// KindEagerWB is the §7 related-work design: eager write-back
	// without a dirty bound (Lee et al. [32]).
	KindEagerWB Kind = "eager-wb"
	KindReplay  Kind = "replaycache"
	KindWL      Kind = "wl" // adaptive (static boot-time), FIFO DQ, LRU cache — the default
	KindWLFixed Kind = "wl-fixed"
	KindWLDyn   Kind = "wl-dyn"
	// KindBroken is the negative control: a plain volatile write-back
	// cache with no cache checkpointing. The fault audit must flag it.
	KindBroken Kind = "broken"
)

// FigureKinds are the designs the main figures compare, in plot order.
func FigureKinds() []Kind {
	return []Kind{KindNVCache, KindVCacheWT, KindReplay, KindWL}
}

// AllKinds returns every buildable design kind: the Table 1 / §6.1
// baselines in presentation order, the broken negative control, then
// the WL-Cache variants. The order is the golden matrix order and the
// serve.Spec default, so it decides sweep IDs and journal names.
func AllKinds() []Kind {
	return []Kind{
		KindNoCache, KindVCacheWT, KindWTBuffer, KindNVCache,
		KindNVSRAM, KindNVSRAMFull, KindNVSRAMPractical,
		KindEagerWB, KindReplay, KindBroken,
		KindWLFixed, KindWL, KindWLDyn,
	}
}

// Valid reports whether NewDesign builds kind: AllKinds lists it.
func (k Kind) Valid() bool { return slices.Contains(AllKinds(), k) }

// A Dimension is one name dimension of a sweep, with its one check.
type Dimension struct {
	noun  string
	valid func(string) bool
}

// The three name dimensions: benchmarks, design kinds and power traces.
var (
	Workloads = Dimension{"workload", func(n string) bool { _, ok := workload.ByName(n); return ok }}
	Kinds     = Dimension{"design kind", func(n string) bool { return Kind(n).Valid() }}
	Traces    = Dimension{"power trace", func(n string) bool { return power.Source(n).Valid() }}
)

// Check returns an error naming name unless the dimension knows it.
func (d Dimension) Check(name string) error {
	if !d.valid(name) {
		return fmt.Errorf("unknown %s %q", d.noun, name)
	}
	return nil
}

// Resolve is the one check of a user-given name list (a flag's value
// split at commas, or a Context's list): it trims every entry, skips
// empty ones, and rejects an unknown name or a list that names
// nothing. label names the list in the last error.
func (d Dimension) Resolve(label string, list []string) ([]string, error) {
	var out []string
	for _, n := range list {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if err := d.Check(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s %q names no %s", label, strings.Join(list, ","), d.noun)
	}
	return out, nil
}

// Options tune a design build; zero values mean paper defaults.
type Options struct {
	Geometry    cache.Geometry          // default 8 KB 2-way 64 B
	CachePolicy cache.ReplacementPolicy // default LRU
	DQPolicy    core.DQPolicy           // default FIFO
	DQCap       int                     // default 8
	Maxline     int                     // default 6
}

func (o Options) normalize() Options {
	if o.Geometry == (cache.Geometry{}) {
		o.Geometry = cache.DefaultGeometry()
	}
	if o.DQCap == 0 {
		o.DQCap = 8
	}
	if o.Maxline == 0 {
		o.Maxline = 6
	}
	return o
}

// isWL reports whether kind is a WL-Cache variant, the only designs
// that take the DirtyQueue options.
func isWL(kind Kind) bool { return kind == KindWL || kind == KindWLFixed || kind == KindWLDyn }

// NewDesign builds a design of the given kind over a fresh NVM. It
// panics on a kind AllKinds does not list; Run reports one as an error.
// Designs with fixed internals (NoCache has no array, NVSRAMPractical
// fixes its policy) ignore the options they do not take.
func NewDesign(kind Kind, opts Options) (sim.Design, *mem.NVM) {
	opts = opts.normalize()
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	jit := energy.DefaultJITCosts()
	geo, pol := opts.Geometry, opts.CachePolicy
	switch kind {
	case KindNoCache:
		return designs.NewNoCache(jit, nvm), nvm
	case KindVCacheWT:
		return designs.NewVCacheWT(geo, cache.SRAMTech(), pol, jit, nvm), nvm
	case KindWTBuffer:
		return designs.NewWTBuffer(geo, cache.SRAMTech(), pol, jit, designs.DefaultWTBufferParams(), nvm), nvm
	case KindNVCache:
		return designs.NewNVCacheWB(geo, pol, jit, nvm), nvm
	case KindNVSRAM:
		return designs.NewNVSRAM(geo, pol, jit, designs.DefaultNVSRAMParams(), nvm), nvm
	case KindNVSRAMFull:
		return designs.NewNVSRAMFull(geo, pol, jit, designs.DefaultNVSRAMParams(), nvm), nvm
	case KindNVSRAMPractical:
		return designs.NewNVSRAMPractical(geo, jit, designs.DefaultNVSRAMParams(), nvm), nvm
	case KindEagerWB:
		return designs.NewEagerWB(geo, pol, jit, nvm), nvm
	case KindReplay:
		return designs.NewReplayCache(geo, pol, jit, designs.DefaultReplayParams(), nvm), nvm
	case KindBroken:
		return designs.NewBrokenVolatileWB(geo, pol, jit, nvm), nvm
	case KindWL, KindWLFixed, KindWLDyn:
		cfg := core.DefaultConfig()
		cfg.JIT = jit
		cfg.Geometry = opts.Geometry
		cfg.CachePolicy = opts.CachePolicy
		cfg.DQPolicy = opts.DQPolicy
		cfg.DQCap = opts.DQCap
		cfg.Maxline = opts.Maxline
		switch kind {
		case KindWLFixed:
			cfg.Adaptive.Mode = core.AdaptOff
		case KindWLDyn:
			cfg.Adaptive.Mode = core.AdaptDynamic
			cfg.Adaptive.MaxMaxline = cfg.DQCap // dynamic raises may use all slots
		default:
			cfg.Adaptive.Mode = core.AdaptStatic
		}
		return core.New(cfg, nvm), nvm
	}
	panic(fmt.Sprintf("expt: unknown design kind %q", kind))
}

// Run executes one (design, workload, trace) cell and returns the
// result. scale <= 0 uses DefaultScale.
func Run(kind Kind, opts Options, wlName string, scale int, src power.Source, simCfg sim.Config) (sim.Result, error) {
	w, ok := workload.ByName(wlName)
	if !ok {
		return sim.Result{}, fmt.Errorf("expt: unknown workload %q", wlName)
	}
	if !kind.Valid() {
		return sim.Result{}, fmt.Errorf("expt: unknown design kind %q", kind)
	}
	if !src.Valid() {
		return sim.Result{}, fmt.Errorf("expt: unknown power source %q", src)
	}
	if o := opts.normalize(); isWL(kind) && (o.Maxline < 1 || o.Maxline > o.DQCap) {
		return sim.Result{}, fmt.Errorf("expt: maxline %d out of range (1..%d)", o.Maxline, o.DQCap)
	}
	if scale <= 0 {
		scale = DefaultScale
	}
	simCfg.Trace = power.Get(src)
	design, nvm := NewDesign(kind, opts)
	s, err := sim.New(simCfg, design, nvm)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run(w.Name, func(m isa.Machine) uint32 { return w.Run(m, scale) })
}

// DefaultScale is the input-size multiplier used by the paper-figure
// experiments.
const DefaultScale = 1
