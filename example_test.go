package wlcache_test

import (
	"fmt"

	"wlcache"
)

// ExampleNewSimulator runs a small program on WL-Cache with
// uninterrupted power and prints its deterministic result.
func ExampleNewSimulator() {
	sim, err := wlcache.NewSimulator(wlcache.DefaultSimConfig(), wlcache.KindWL)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run("sum", func(m wlcache.Machine) uint32 {
		for i := uint32(0); i < 100; i++ {
			m.Store32(0x1000+i*4, i*i)
			m.Compute(4)
		}
		sum := uint32(0)
		for i := uint32(0); i < 100; i++ {
			sum += m.Load32(0x1000 + i*4)
			m.Compute(2)
		}
		return sum
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("checksum %d after %d instructions, %d outages\n",
		res.Checksum, res.Instructions, res.Outages)
	// Output: checksum 328350 after 800 instructions, 0 outages
}

// ExampleWorkloadByName runs one of the paper's benchmarks under the
// home RF power trace and reports how many power failures it
// survived with a bit-exact result.
func ExampleWorkloadByName() {
	w, ok := wlcache.WorkloadByName("basicmath")
	if !ok {
		panic("unknown workload")
	}
	cfg := wlcache.DefaultSimConfig()
	cfg.Trace = wlcache.Trace(wlcache.Trace1)
	cfg.CheckInvariants = true // audit crash consistency as it runs
	sim, err := wlcache.NewSimulator(cfg, wlcache.KindWL)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run(w.Name, func(m wlcache.Machine) uint32 { return w.Run(m, 1) })
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s finished with checksum %#08x; crash consistency held across every outage\n",
		w.Name, res.Checksum)
	// Output: basicmath finished with checksum 0xaec24eb0; crash consistency held across every outage
}

// ExampleNewSimulator_compare compares WL-Cache against the
// state-of-the-art baseline, NVSRAM(ideal), on the same workload and
// trace.
func ExampleNewSimulator_compare() {
	run := func(kind wlcache.Kind) wlcache.Result {
		cfg := wlcache.DefaultSimConfig()
		cfg.Trace = wlcache.Trace(wlcache.Trace2)
		sim, err := wlcache.NewSimulator(cfg, kind)
		if err != nil {
			panic(err)
		}
		w, _ := wlcache.WorkloadByName("adpcmencode")
		res, err := sim.Run(w.Name, func(m wlcache.Machine) uint32 { return w.Run(m, 1) })
		if err != nil {
			panic(err)
		}
		return res
	}
	wl := run(wlcache.KindWL)
	base := run(wlcache.KindNVSRAM)
	fmt.Printf("same result: %v; WL-Cache faster: %v\n",
		wl.Checksum == base.Checksum, wl.ExecTime < base.ExecTime)
	// Output: same result: true; WL-Cache faster: true
}
