package obs

import "testing"

// TestOpContextFlowsIntoNextStall: an op's PC is the hotspot key of
// the stall that follows it, and the next op's PC replaces it.
func TestOpContextFlowsIntoNextStall(t *testing.T) {
	r := NewRecorder(RunMeta{}, 64)
	for _, pc := range []uint64{0xABCD, 0x1234} {
		r.OpContext(pc)
		r.StoreStall(100, 200, 0x40)
		evs := r.Trace().Events()
		if len(evs) == 0 {
			t.Fatal("no stall event recorded")
		}
		if got := evs[len(evs)-1].B; got != int64(pc) {
			t.Fatalf("stall carries PC %#x, want %#x", got, pc)
		}
	}
}

// TestOpContextNilRecorder: recording op context on a nil recorder is
// a no-op.
func TestOpContextNilRecorder(t *testing.T) {
	var r *Recorder
	r.OpContext(1) // must not panic
}
