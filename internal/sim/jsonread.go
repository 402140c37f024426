package sim

import "strconv"

// JSONReader decodes the exact bytes encoding/json writes for a Result,
// and for the journal records and stream events that carry one, in one
// pass and without reflection. It accepts only that canonical form: no
// whitespace, keys in struct order, strings of printable ASCII with no
// escapes, numbers in JSON grammar. Numbers go through the strconv
// calls encoding/json makes, so a value the reader accepts decodes
// bit-identically to encoding/json's.
//
// The reader never guesses: at the first byte it does not expect it
// stops, every later read is a no-op, and End reports false. The caller
// then decodes the line with encoding/json, which decides what the line
// means — the reader is only a fast path for bytes this program wrote.
type JSONReader struct {
	b   []byte
	off int
	bad bool
}

// NewJSONReader returns a reader over one encoded value.
func NewJSONReader(b []byte) JSONReader { return JSONReader{b: b} }

// End reports whether every read so far matched and the input is used
// up exactly.
func (r *JSONReader) End() bool { return !r.bad && r.off == len(r.b) }

// Lit consumes the literal lit, which must come next.
func (r *JSONReader) Lit(lit string) {
	if !r.Key(lit) {
		r.bad = true
	}
}

// Key consumes lit if it comes next, and reports whether it did: an
// optional key, as encoding/json writes an omitempty field.
func (r *JSONReader) Key(lit string) bool {
	if r.bad || len(r.b)-r.off < len(lit) || string(r.b[r.off:r.off+len(lit)]) != lit {
		return false
	}
	r.off += len(lit)
	return true
}

// Str consumes the literal key, then a string with no escapes.
func (r *JSONReader) Str(key string) string {
	r.Lit(key)
	if r.bad || r.off == len(r.b) || r.b[r.off] != '"' {
		r.bad = true
		return ""
	}
	for i := r.off + 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			s := string(r.b[r.off+1 : i])
			r.off = i + 1
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			r.bad = true
			return ""
		}
	}
	r.bad = true
	return ""
}

// Int consumes the literal key, then an integer that fits in bits.
func (r *JSONReader) Int(key string, bits int) int64 {
	n, err := strconv.ParseInt(string(r.number(key)), 10, bits)
	r.bad = r.bad || err != nil
	return n
}

// Uint consumes the literal key, then an unsigned integer that fits in
// bits.
func (r *JSONReader) Uint(key string, bits int) uint64 {
	n, err := strconv.ParseUint(string(r.number(key)), 10, bits)
	r.bad = r.bad || err != nil
	return n
}

// Float consumes the literal key, then a float64.
func (r *JSONReader) Float(key string) float64 {
	f, err := strconv.ParseFloat(string(r.number(key)), 64)
	r.bad = r.bad || err != nil
	return f
}

// number consumes the literal key, then one number in JSON grammar,
// and returns its text: nil after a mismatch, which every strconv
// parse rejects.
func (r *JSONReader) number(key string) []byte {
	r.Lit(key)
	if r.bad {
		return nil
	}
	b, i := r.b, r.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	// An integer part is one 0 or a digit string without a leading 0.
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		r.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); !isDigit(b[i-1]) {
			r.bad = true
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); !isDigit(b[i-1]) {
			r.bad = true
			return nil
		}
	}
	tok := b[r.off:i]
	r.off = i
	return tok
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Result consumes the literal key, then a Result as encoding/json
// writes it: every field, in declaration order. It must track the
// Result declaration field for field; TestJSONReaderCoversResult fails
// when the two drift apart.
func (r *JSONReader) Result(key string, res *Result) {
	r.Lit(key)
	res.Design = r.Str(`{"Design":`)
	res.Workload = r.Str(`,"Workload":`)
	res.Trace = r.Str(`,"Trace":`)
	res.ExecTime = r.Int(`,"ExecTime":`, 64)
	res.OnTime = r.Int(`,"OnTime":`, 64)
	res.CheckpointTime = r.Int(`,"CheckpointTime":`, 64)
	res.OffTime = r.Int(`,"OffTime":`, 64)
	res.RestoreTime = r.Int(`,"RestoreTime":`, 64)
	res.Instructions = r.Uint(`,"Instructions":`, 64)
	res.Loads = r.Uint(`,"Loads":`, 64)
	res.Stores = r.Uint(`,"Stores":`, 64)
	res.Outages = r.Uint(`,"Outages":`, 64)

	e := &res.Energy
	e.CacheRead = r.Float(`,"Energy":{"CacheRead":`)
	e.CacheWrite = r.Float(`,"CacheWrite":`)
	e.MemRead = r.Float(`,"MemRead":`)
	e.MemWrite = r.Float(`,"MemWrite":`)
	e.Compute = r.Float(`,"Compute":`)
	e.Checkpoint = r.Float(`,"Checkpoint":`)
	e.Restore = r.Float(`,"Restore":`)
	e.Leak = r.Float(`,"Leak":`)

	t := &res.NVMTraffic
	t.ReadWords = r.Uint(`},"NVMTraffic":{"ReadWords":`, 64)
	t.WriteWords = r.Uint(`,"WriteWords":`, 64)
	t.Reads = r.Uint(`,"Reads":`, 64)
	t.Writes = r.Uint(`,"Writes":`, 64)

	res.ReserveWasted = r.Float(`},"ReserveWasted":`)
	res.Checksum = uint32(r.Uint(`,"Checksum":`, 32))

	x := &res.Extra
	x.Writebacks = r.Uint(`,"Extra":{"Writebacks":`, 64)
	x.Stalls = r.Uint(`,"Stalls":`, 64)
	x.StallTime = r.Int(`,"StallTime":`, 64)
	x.Reconfigs = int(r.Int(`,"Reconfigs":`, strconv.IntSize))
	x.MaxlineNow = int(r.Int(`,"MaxlineNow":`, strconv.IntSize))
	x.WaterlineNow = int(r.Int(`,"WaterlineNow":`, strconv.IntSize))
	x.CheckpointLines = r.Uint(`,"CheckpointLines":`, 64)
	x.DirtyPeak = int(r.Int(`,"DirtyPeak":`, strconv.IntSize))
	x.RedundantDQ = r.Uint(`,"RedundantDQ":`, 64)
	x.StaleDQSkips = r.Uint(`,"StaleDQSkips":`, 64)
	x.DroppedACKs = r.Uint(`,"DroppedACKs":`, 64)
	r.Lit(`}}`)
}
