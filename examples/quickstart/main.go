// Quickstart: run one of the paper's benchmarks on WL-Cache under the
// home RF power trace and compare it with the NVSRAM(ideal) baseline.
package main

import (
	"fmt"
	"log"

	"wlcache"
)

func main() {
	// The sha benchmark under Power Trace 1, on WL-Cache.
	wl, ok := wlcache.WorkloadByName("sha")
	if !ok {
		log.Fatal("sha workload missing")
	}

	run := func(kind wlcache.Kind) wlcache.Result {
		cfg := wlcache.DefaultSimConfig()
		cfg.Trace = wlcache.Trace(wlcache.Trace1)
		cfg.CheckInvariants = true // verify crash consistency as we go
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

	wlRes := run(wlcache.KindWL)
	baseRes := run(wlcache.KindNVSRAM)

	fmt.Println(wlRes)
	fmt.Println(baseRes)
	fmt.Printf("WL-Cache speedup over NVSRAM(ideal): %.2fx\n",
		float64(baseRes.ExecTime)/float64(wlRes.ExecTime))
	if wlRes.Checksum == baseRes.Checksum {
		fmt.Println("checksums match: both designs computed identical results across power failures")
	} else {
		fmt.Println("CHECKSUM MISMATCH — crash consistency violated!")
	}
}
