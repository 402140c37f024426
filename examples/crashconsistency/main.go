// Crash-consistency demo: why energy harvesting systems cannot simply
// use a volatile write-back cache, and how WL-Cache's bounded
// DirtyQueue fixes it.
//
// The demo runs a ledger workload (read-modify-write transfers over a
// table of balances, then an audit) under frequent power failures on
// three configurations:
//
//  1. a volatile write-back cache with NO checkpointing (the broken
//     strawman from the paper's introduction): dirty lines die with
//     the power and the audit fails;
//  2. WL-Cache: the DirtyQueue bounds dirtiness and the JIT
//     checkpoint flushes it, so the ledger survives every outage;
//  3. the NVSRAM(ideal) baseline for reference.
package main

import (
	"fmt"
	"log"

	"wlcache"
)

const (
	accounts = 512
	tableAt  = 0x20000
	updates  = 60000
)

// ledger posts pseudo-random transfers between accounts and returns
// the final table checksum. Money is conserved, so the audit total
// must equal accounts*1000 no matter how often the power failed.
func ledger(m wlcache.Machine) uint32 {
	for i := 0; i < accounts; i++ {
		m.Store32(uint32(tableAt+i*4), 1000)
		m.Compute(3)
	}
	state := uint32(0x1ed6e5)
	for n := 0; n < updates; n++ {
		state = state*1664525 + 1013904223
		from := (state >> 8) % accounts
		to := (state >> 20) % accounts
		fb := m.Load32(uint32(tableAt + from*4))
		tb := m.Load32(uint32(tableAt + to*4))
		if fb > 0 && from != to {
			m.Store32(uint32(tableAt+from*4), fb-1)
			m.Store32(uint32(tableAt+to*4), tb+1)
		}
		m.Compute(12)
	}
	var sum, h uint32
	for i := 0; i < accounts; i++ {
		v := m.Load32(uint32(tableAt + i*4))
		sum += v
		h = (h ^ v) * 16777619
		m.Compute(4)
	}
	status := "OK"
	if sum != accounts*1000 {
		status = "*** CORRUPT ***"
	}
	fmt.Printf("    audit: total balance %d (expect %d)  %s\n", sum, accounts*1000, status)
	return h
}

func main() {
	fmt.Println("1) volatile write-back cache WITHOUT JIT checkpointing (broken strawman):")
	runLedger(wlcache.KindBroken)

	fmt.Println("2) WL-Cache (bounded DirtyQueue + JIT checkpoint):")
	runLedger(wlcache.KindWL)

	fmt.Println("3) NVSRAM(ideal) baseline:")
	runLedger(wlcache.KindNVSRAM)
}

func runLedger(kind wlcache.Kind) {
	cfg := wlcache.DefaultSimConfig()
	cfg.Trace = wlcache.Trace(wlcache.Trace2)
	// Invariant checking would abort the broken design at its first
	// outage; to *demonstrate* the corruption we run unchecked and let
	// the audit discover it.
	cfg.CheckInvariants = false
	s, err := wlcache.NewSimulator(cfg, kind)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run("ledger", ledger)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    design %s: outages %d, exec %.3f ms, checksum %#08x\n\n",
		res.Design, res.Outages, res.Seconds()*1e3, res.Checksum)
}
