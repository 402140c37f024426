package core

import (
	"testing"

	"wlcache/internal/isa"
	"wlcache/internal/mem"
)

// FuzzCrashRecovery crashes a WL-Cache at fuzzer-chosen points —
// including while asynchronous write-backs are still in flight on the
// NVM port and with write-back ACKs lost — restores, and asserts the
// §3/§5 invariants: whole-system durability at every checkpoint, the
// dirty bound, and architectural value correctness after recovery.
func FuzzCrashRecovery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 6, 0, 0, 1, 4, 5, 6, 0, 0, 0, 2, 3}, uint8(2), uint8(0x80))
	f.Add([]byte{5, 1, 1, 5, 2, 2, 5, 3, 3, 6, 0, 0, 7, 0, 0, 0, 1, 1}, uint8(1), uint8(0xff))
	f.Add([]byte{3, 9, 9, 3, 8, 8, 6, 0, 0, 3, 7, 7, 6, 0, 0}, uint8(5), uint8(0x20))
	// Drops an ACK while its DirtyQueue entry stays queued: the entry's
	// in-flight count must fall with the drop.
	f.Add([]byte("1001011001011021001A0"), uint8(0), uint8(0x20))
	f.Fuzz(func(t *testing.T, data []byte, mlSeed, dropSeed uint8) {
		maxline := 1 + int(mlSeed)%6
		nvm := mem.NewNVM(mem.DefaultNVMParams())
		cfg := DefaultConfig()
		cfg.Maxline = maxline
		cfg.Waterline = maxline - 1
		if cfg.Waterline < 1 {
			cfg.Waterline = 1
		}
		cfg.Adaptive.Mode = AdaptOff
		c := New(cfg, nvm)
		// Deterministic ACK loss: a write-back's ACK is dropped when
		// its id hashes below the fuzz-chosen threshold, stranding the
		// DirtyQueue entry for the §5.4 lazy discard.
		c.SetACKFilter(func(id uint64, addr uint32) bool {
			return uint8(id*0x9e3779b9>>5) >= dropSeed
		})
		golden := mem.NewStore()
		now := int64(0)
		crash := func() {
			// Power fails *now* — possibly with write-backs still in
			// flight (the port is busy past now), exercising the
			// redundant checkpoint flush of §5.3. The volatile array
			// is then lost and the system reboots.
			done, _ := c.Checkpoint(now)
			if err := c.DurableEqual(golden); err != nil {
				t.Fatalf("durability violated at crash: %v", err)
			}
			now, _ = c.Restore(done)
		}
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i]
			addr := (uint32(data[i+1]) | uint32(data[i+2])<<8) << 2 // 256 KB footprint
			switch op % 8 {
			case 6:
				crash()
			case 7:
				// Idle until the NVM port drains so pending ACKs (or
				// their injected losses) are processed on the next
				// access.
				if bu := nvm.BusyUntil(); bu > now {
					now = bu
				}
			case 1, 3, 5:
				val := uint32(op)<<24 | addr
				golden.Write(addr, val)
				_, done, _ := c.Access(now, isa.OpStore, addr, val)
				now = done
			default:
				v, done, _ := c.Access(now, isa.OpLoad, addr, 0)
				if want := golden.Read(addr); v != want {
					t.Fatalf("load %#x = %#x, want %#x", addr, v, want)
				}
				now = done
			}
			if c.DirtyLines() > maxline {
				t.Fatalf("dirty lines %d exceed maxline %d", c.DirtyLines(), maxline)
			}
			checkInflightCounts(t, c)
		}
		crash()
		// Post-recovery reads must come back architecturally correct
		// from the (cold) hierarchy.
		for i := 0; i+3 <= len(data); i += 3 {
			addr := (uint32(data[i+1]) | uint32(data[i+2])<<8) << 2
			v, done, _ := c.Access(now, isa.OpLoad, addr, 0)
			if want := golden.Read(addr); v != want {
				t.Fatalf("post-recovery load %#x = %#x, want %#x", addr, v, want)
			}
			now = done
		}
	})
}

// checkInflightCounts asserts that every DirtyQueue entry's in-flight
// count equals the number of issued write-backs still awaiting an ACK
// for it: the scan of the in-flight list that the count replaces.
func checkInflightCounts(t *testing.T, c *WLCache) {
	t.Helper()
	for _, e := range c.dq.entries {
		n := int32(0)
		for _, w := range c.inflight {
			if w.id == e.id {
				n++
			}
		}
		if e.inflight != n {
			t.Fatalf("DirtyQueue entry %d (%#x) counts %d write-backs in flight, %d are", e.id, e.addr, e.inflight, n)
		}
	}
}
