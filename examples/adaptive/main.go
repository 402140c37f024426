// Adaptive-threshold demo (§4 of the paper): watch WL-Cache's runtime
// system move maxline/waterline (and with them Vbackup) as the energy
// source's quality changes, and compare static, adaptive and dynamic
// threshold management across the RF and solar traces.
package main

import (
	"fmt"
	"log"

	"wlcache"
	"wlcache/internal/core"
	"wlcache/internal/energy"
)

func main() {
	wl, _ := wlcache.WorkloadByName("susanedges")

	fmt.Println("Threshold management comparison on", wl.Name)
	fmt.Printf("%-8s %12s %12s %12s\n", "trace", "static(6)", "adaptive", "dynamic")
	for _, src := range []wlcache.Source{wlcache.Trace1, wlcache.Trace2, wlcache.Trace3, wlcache.Solar, wlcache.Thermal} {
		var times [3]float64
		var notes [3]string
		for i, kind := range []wlcache.Kind{wlcache.KindWLFixed, wlcache.KindWL, wlcache.KindWLDyn} {
			res := run(wl, src, kind)
			times[i] = res.Seconds()
			notes[i] = fmt.Sprintf("%d cfg", res.Extra.Reconfigs)
		}
		fmt.Printf("%-8s %9.3fms %9.3fms %9.3fms   (reconfigs: %s / %s / %s)\n",
			src, times[0]*1e3, times[1]*1e3, times[2]*1e3, notes[0], notes[1], notes[2])
	}

	// Show the Vbackup a given maxline implies (§5.5).
	fmt.Println("\nVbackup as a function of maxline (1 uF capacitor):")
	simCfg := wlcache.DefaultSimConfig()
	for ml := 2; ml <= 8; ml++ {
		reserve := energy.DefaultJITCosts().BaseReserve + float64(ml)*core.DefaultConfig().LineReserve
		vb := simCfg.Vbackup(reserve)
		fmt.Printf("  maxline %d -> reserve %4.0f nJ -> Vbackup %.3f V (Von %.3f V)\n",
			ml, reserve*1e9, vb, simCfg.Von(vb))
	}
}

func run(wl wlcache.Workload, src wlcache.Source, kind wlcache.Kind) wlcache.Result {
	cfg := wlcache.DefaultSimConfig()
	cfg.Trace = wlcache.Trace(src)
	cfg.CheckInvariants = true
	s, err := wlcache.NewSimulator(cfg, kind)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(wl.Name, func(m wlcache.Machine) uint32 { return wl.Run(m, 1) })
	if err != nil {
		log.Fatal(err)
	}
	return res
}
