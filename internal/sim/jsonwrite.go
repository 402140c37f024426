package sim

import (
	"math"
	"strconv"
)

// JSONWriter appends the exact bytes encoding/json writes for a Result,
// and for the journal records and stream events that carry one, without
// reflection: the mirror of JSONReader. Keys are literals the caller
// passes in field order, numbers go through the strconv calls
// encoding/json makes, and floats get its 'f'/'e' switch and exponent
// clean-up, so a line the writer finishes is byte-identical to
// encoding/json's.
//
// The writer never guesses either: a value whose bytes it cannot
// promise — a non-finite float (encoding/json refuses it), a string
// encoding/json would escape — marks the output bad, and Bytes reports
// false. The caller then encodes the value with encoding/json, which
// decides what it becomes.
type JSONWriter struct {
	b   []byte
	bad bool
}

// NewJSONWriter returns a writer that appends to dst.
func NewJSONWriter(dst []byte) JSONWriter { return JSONWriter{b: dst} }

// Bytes returns dst with everything written appended, and whether every
// value was written as encoding/json would write it.
func (w *JSONWriter) Bytes() ([]byte, bool) { return w.b, !w.bad }

// Lit appends the literal lit.
func (w *JSONWriter) Lit(lit string) { w.b = append(w.b, lit...) }

// Str appends the literal key, then s as a JSON string. Only printable
// ASCII that encoding/json writes unescaped is accepted: a quote, a
// backslash, <, >, & (HTML-escaped by default), a control or a
// non-ASCII byte marks the output bad.
func (w *JSONWriter) Str(key, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			w.bad = true
		}
	}
	w.b = append(w.b, key...)
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// Int appends the literal key, then n.
func (w *JSONWriter) Int(key string, n int64) {
	w.b = strconv.AppendInt(append(w.b, key...), n, 10)
}

// Uint appends the literal key, then n.
func (w *JSONWriter) Uint(key string, n uint64) {
	w.b = strconv.AppendUint(append(w.b, key...), n, 10)
}

// Float appends the literal key, then f as encoding/json writes a
// float64: the shortest round-trip digits, in 'e' form below 1e-6 and
// from 1e21 on, with a two-digit negative exponent cut to one digit
// (e-07 → e-7). NaN and ±Inf mark the output bad.
func (w *JSONWriter) Float(key string, f float64) {
	w.b = append(w.b, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.bad = true
		return
	}
	form := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		form = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, form, -1, 64)
	if form == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// Result appends the literal key, then res as encoding/json writes it:
// every field, in declaration order. It must track the Result
// declaration field for field, as JSONReader.Result does;
// TestJSONWriterCoversResult fails when the two drift apart.
func (w *JSONWriter) Result(key string, res *Result) {
	w.Lit(key)
	w.Str(`{"Design":`, res.Design)
	w.Str(`,"Workload":`, res.Workload)
	w.Str(`,"Trace":`, res.Trace)
	w.Int(`,"ExecTime":`, res.ExecTime)
	w.Int(`,"OnTime":`, res.OnTime)
	w.Int(`,"CheckpointTime":`, res.CheckpointTime)
	w.Int(`,"OffTime":`, res.OffTime)
	w.Int(`,"RestoreTime":`, res.RestoreTime)
	w.Uint(`,"Instructions":`, res.Instructions)
	w.Uint(`,"Loads":`, res.Loads)
	w.Uint(`,"Stores":`, res.Stores)
	w.Uint(`,"Outages":`, res.Outages)

	e := &res.Energy
	w.Float(`,"Energy":{"CacheRead":`, e.CacheRead)
	w.Float(`,"CacheWrite":`, e.CacheWrite)
	w.Float(`,"MemRead":`, e.MemRead)
	w.Float(`,"MemWrite":`, e.MemWrite)
	w.Float(`,"Compute":`, e.Compute)
	w.Float(`,"Checkpoint":`, e.Checkpoint)
	w.Float(`,"Restore":`, e.Restore)
	w.Float(`,"Leak":`, e.Leak)

	t := &res.NVMTraffic
	w.Uint(`},"NVMTraffic":{"ReadWords":`, t.ReadWords)
	w.Uint(`,"WriteWords":`, t.WriteWords)
	w.Uint(`,"Reads":`, t.Reads)
	w.Uint(`,"Writes":`, t.Writes)

	w.Float(`},"ReserveWasted":`, res.ReserveWasted)
	w.Uint(`,"Checksum":`, uint64(res.Checksum))

	x := &res.Extra
	w.Uint(`,"Extra":{"Writebacks":`, x.Writebacks)
	w.Uint(`,"Stalls":`, x.Stalls)
	w.Int(`,"StallTime":`, x.StallTime)
	w.Int(`,"Reconfigs":`, int64(x.Reconfigs))
	w.Int(`,"MaxlineNow":`, int64(x.MaxlineNow))
	w.Int(`,"WaterlineNow":`, int64(x.WaterlineNow))
	w.Uint(`,"CheckpointLines":`, x.CheckpointLines)
	w.Int(`,"DirtyPeak":`, int64(x.DirtyPeak))
	w.Uint(`,"RedundantDQ":`, x.RedundantDQ)
	w.Uint(`,"StaleDQSkips":`, x.StaleDQSkips)
	w.Uint(`,"DroppedACKs":`, x.DroppedACKs)
	w.Lit(`}}`)
}
