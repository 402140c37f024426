package core

// AdaptiveMode selects how WL-Cache's thresholds are managed (§4).
type AdaptiveMode uint8

const (
	// AdaptOff keeps maxline/waterline fixed ("static" WL-Cache).
	AdaptOff AdaptiveMode = iota
	// AdaptStatic reconfigures thresholds at each boot from the trend
	// of measured power-on times (the paper's default optimization).
	AdaptStatic
	// AdaptDynamic additionally raises maxline opportunistically
	// during execution when residual capacitor energy allows
	// (WL-Cache(dyn), §4 "Dynamic adaptation").
	AdaptDynamic
)

// String names the mode.
func (m AdaptiveMode) String() string {
	switch m {
	case AdaptOff:
		return "off"
	case AdaptStatic:
		return "static"
	case AdaptDynamic:
		return "dynamic"
	}
	return "unknown"
}

// AdaptiveConfig parameterizes the boot-time controller.
type AdaptiveConfig struct {
	Mode AdaptiveMode
	// MinMaxline/MaxMaxline clamp the adapted threshold. The paper
	// observes min/max values of 2 and 6 on both traces (§6.6).
	MinMaxline int
	MaxMaxline int
	// GrowRatio/ShrinkRatio are the significance thresholds on the
	// power-on time trend: Tn-1 > GrowRatio*Tn-2 raises maxline,
	// Tn-1 < ShrinkRatio*Tn-2 lowers it, otherwise it is kept.
	GrowRatio   float64
	ShrinkRatio float64
}

// DefaultAdaptiveConfig enables static boot-time adaptation with the
// paper's observed bounds.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Mode:        AdaptStatic,
		MinMaxline:  2,
		MaxMaxline:  6,
		GrowRatio:   1.25,
		ShrinkRatio: 0.80,
	}
}

// Adaptive is the runtime-system controller that tracks the last two
// power-on durations (persisted in 2-byte NVFFs per §5.5) and derives
// the next interval's maxline. Thresholds change only at boot;
// changing them mid-run could invalidate the JIT energy guarantee.
type Adaptive struct {
	cfg     AdaptiveConfig
	maxline int
}

// NewAdaptive returns a controller starting from initialMaxline.
func NewAdaptive(cfg AdaptiveConfig, initialMaxline int) *Adaptive {
	if cfg.MinMaxline <= 0 {
		cfg.MinMaxline = 1
	}
	if cfg.MaxMaxline < cfg.MinMaxline {
		cfg.MaxMaxline = cfg.MinMaxline
	}
	m := initialMaxline
	if m < cfg.MinMaxline {
		m = cfg.MinMaxline
	}
	if m > cfg.MaxMaxline {
		m = cfg.MaxMaxline
	}
	return &Adaptive{cfg: cfg, maxline: m}
}

// NextMaxline ingests the power-on durations (ps) of the last two
// completed intervals (lastOn = Tn-1, prevOn = Tn-2) and returns the
// maxline for the interval now starting.
func (a *Adaptive) NextMaxline(lastOn, prevOn int64) int {
	if lastOn <= 0 || prevOn <= 0 {
		return a.maxline // not enough history yet
	}
	ratio := float64(lastOn) / float64(prevOn)
	switch {
	case ratio > a.cfg.GrowRatio && a.maxline < a.cfg.MaxMaxline:
		a.maxline++
	case ratio < a.cfg.ShrinkRatio && a.maxline > a.cfg.MinMaxline:
		a.maxline--
	}
	return a.maxline
}

// Maxline returns the controller's current threshold.
func (a *Adaptive) Maxline() int { return a.maxline }
