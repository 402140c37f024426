package expt

import (
	"encoding/json"
	"reflect"
	"strings"
)

// goldenCellJSON is GoldenCell without its methods: encoding/json
// decodes a cell into it by reflection when the one-pass reader gives
// up.
type goldenCellJSON GoldenCell

// UnmarshalJSON decodes one cell, replacing *c. Cells in the form this
// program writes them — json.Marshal's compact bytes or
// json.MarshalIndent's — take the one-pass reader; anything else goes
// to encoding/json, which decides what the bytes mean and words any
// error as it would for a GoldenCell without this method.
func (c *GoldenCell) UnmarshalJSON(b []byte) error {
	s := string(b)
	r := goldenReader{s: s, hint: strings.Count(s, ":")}
	var fast GoldenCell
	if r.cell(&fast); r.end() {
		*c = fast
		return nil
	}
	var twin goldenCellJSON
	if err := json.Unmarshal(b, &twin); err != nil {
		if te, ok := err.(*json.UnmarshalTypeError); ok {
			if te.Struct == "goldenCellJSON" {
				te.Struct = "GoldenCell"
			}
			if te.Type == reflect.TypeFor[goldenCellJSON]() {
				te.Type = reflect.TypeFor[GoldenCell]()
			}
		}
		return err
	}
	*c = GoldenCell(twin)
	return nil
}

// readGoldenCells reads a whole matrix file, a JSON array of cells, in
// one pass. It reports false at the first byte the reader does not
// expect; the caller then decodes the file with encoding/json.
func readGoldenCells(s string) ([]GoldenCell, bool) {
	r := goldenReader{s: s}
	r.want('[')
	cells := []GoldenCell{}
	if !r.next(']') {
		for !r.bad {
			var c GoldenCell
			r.cell(&c)
			r.hint = len(c.Fields)
			cells = append(cells, c)
			if !r.next(',') {
				r.want(']')
				break
			}
		}
	}
	return cells, r.end()
}

// goldenReader walks the bytes encoding/json writes for golden cells:
// objects whose members are the string keys kind, workload, trace and
// err and a fields object of strings, strings of printable ASCII with no
// escapes, and JSON whitespace between tokens. At the first byte it
// does not expect it stops, every later read is a no-op, and end
// reports false. Every string it returns is a substring of s, so a
// whole file costs one string copy.
type goldenReader struct {
	s    string
	off  int
	bad  bool
	hint int // size of the last fields object, for the next one's map
}

// end reports whether every read matched and only whitespace is left.
func (r *goldenReader) end() bool {
	r.ws()
	return !r.bad && r.off == len(r.s)
}

func (r *goldenReader) ws() {
	for r.off < len(r.s) {
		switch r.s[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// next consumes the byte c if it comes next, and reports whether it
// did.
func (r *goldenReader) next(c byte) bool {
	if r.ws(); r.bad || r.off == len(r.s) || r.s[r.off] != c {
		return false
	}
	r.off++
	return true
}

// want consumes the byte c, which must come next.
func (r *goldenReader) want(c byte) {
	if !r.next(c) {
		r.bad = true
	}
}

// str consumes a string of printable ASCII with no escapes.
func (r *goldenReader) str() string {
	r.want('"')
	if r.bad {
		return ""
	}
	for i := r.off; i < len(r.s); i++ {
		switch c := r.s[i]; {
		case c == '"':
			s := r.s[r.off:i]
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

// cell consumes one cell object into c, which must be zero. A key that
// is not one of the five lower-case member names, or that comes twice,
// is unexpected.
func (r *goldenReader) cell(c *GoldenCell) {
	r.want('{')
	if r.next('}') {
		return
	}
	var seen uint8
	for !r.bad {
		key := r.str()
		r.want(':')
		var bit uint8
		switch key {
		case "kind":
			bit, c.Kind = 1, r.str()
		case "workload":
			bit, c.Workload = 2, r.str()
		case "trace":
			bit, c.Trace = 4, r.str()
		case "err":
			bit, c.Err = 8, r.str()
		case "fields":
			bit, c.Fields = 16, r.fields()
		}
		if bit == 0 || seen&bit != 0 {
			r.bad = true
		}
		seen |= bit
		if !r.next(',') {
			r.want('}')
			return
		}
	}
}

// fields consumes an object of strings. An empty object gives an empty
// map, as encoding/json's does; a key that comes twice is unexpected.
func (r *goldenReader) fields() map[string]string {
	r.want('{')
	if r.bad {
		return nil
	}
	m := make(map[string]string, r.hint)
	if r.next('}') {
		return m
	}
	for !r.bad {
		k := r.str()
		r.want(':')
		n := len(m)
		if m[k] = r.str(); len(m) == n {
			r.bad = true
		}
		if !r.next(',') {
			r.want('}')
			break
		}
	}
	return m
}
