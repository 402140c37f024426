package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fillDistinct gives every leaf field of the struct v points to a
// distinct non-zero value, so a field the reader skips or misplaces
// cannot go unnoticed.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*n++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, n)
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", *n))
		case reflect.Int, reflect.Int64:
			f.SetInt(-int64(*n) * 1e9)
		case reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(*n) * 1e8)
		case reflect.Float64:
			f.SetFloat(float64(*n) * 1.1e-9)
		default:
			t.Fatalf("field %s has kind %s: teach JSONReader.Result and this test about it", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// A field added to Result (or to the structs it embeds) must be taught
// to JSONReader.Result, or every journal line and cell event would
// silently take the slow path. Every field gets a distinct non-zero
// value; the reader must accept encoding/json's bytes for it and give
// the value back exactly.
func TestJSONReaderCoversResult(t *testing.T) {
	var want Result
	n := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &n)
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	r := NewJSONReader(line)
	r.Result("", &got)
	if !r.End() {
		t.Fatalf("reader rejected encoding/json's bytes for a Result:\n%s", line)
	}
	if got != want {
		t.Fatalf("reader round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

// Numbers: the reader takes exactly JSON's number grammar and parses it
// as encoding/json does, so whatever it accepts decodes to the same
// bits; anything outside the grammar or the field's range is left to
// encoding/json.
func TestJSONReaderNumbers(t *testing.T) {
	for _, tc := range []struct {
		lit    string
		accept bool
	}{
		{"0", true}, {"-0", true}, {"1", true}, {"-17", true},
		{"0.5", true}, {"1e5", true}, {"1E+05", true}, {"-2.5e-300", true},
		{"0.000018432999999998887", true}, {"1e-400", true},
		{"1e400", false}, {"01", false}, {"1.", false}, {".5", false},
		{"1e", false}, {"1e+", false}, {"+1", false}, {"NaN", false},
		{"Infinity", false}, {"0x10", false}, {"1_0", false}, {"", false},
	} {
		r := NewJSONReader([]byte(tc.lit))
		got := r.Float("")
		if r.End() != tc.accept {
			t.Errorf("%q: accepted %v, want %v", tc.lit, r.End(), tc.accept)
			continue
		}
		if !tc.accept {
			continue
		}
		var want float64
		if err := json.Unmarshal([]byte(tc.lit), &want); err != nil {
			t.Errorf("%q: reader accepted, encoding/json did not: %v", tc.lit, err)
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: reader gave %v (%#x), encoding/json %v (%#x)", tc.lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	// Integers take the integer subset of the grammar, range-checked
	// against the field's size and sign.
	for _, tc := range []struct {
		lit      string
		unsigned bool
		bits     int
		accept   bool
	}{
		{"4294967295", true, 32, true}, {"4294967296", true, 32, false},
		{"-1", true, 64, false}, {"-1", false, 64, true},
		{"1.0", false, 64, false}, {"1e3", false, 64, false},
		{"9223372036854775808", false, 64, false},
	} {
		r := NewJSONReader([]byte(tc.lit))
		if tc.unsigned {
			r.Uint("", tc.bits)
		} else {
			r.Int("", tc.bits)
		}
		if r.End() != tc.accept {
			t.Errorf("%q (unsigned %v, %d bits): accepted %v, want %v", tc.lit, tc.unsigned, tc.bits, r.End(), tc.accept)
		}
	}
}

// Strings: printable ASCII without escapes is read as is; an escape, a
// control byte or a non-ASCII byte stops the reader, since encoding/json
// would have to interpret it.
func TestJSONReaderStrings(t *testing.T) {
	for _, tc := range []struct {
		lit    string
		accept bool
	}{
		{`""`, true}, {`"fp=1 geom=8192/2/64"`, true}, {`"a<b"`, true},
		{`"a\"b"`, false}, {`"a\u003cb"`, false}, {"\"tab\there\"", false},
		{"\"café\"", false}, {`"open`, false}, {`bare`, false},
	} {
		r := NewJSONReader([]byte(tc.lit))
		got := r.Str("")
		if r.End() != tc.accept {
			t.Errorf("%s: accepted %v, want %v", tc.lit, r.End(), tc.accept)
			continue
		}
		var want string
		if tc.accept && (json.Unmarshal([]byte(tc.lit), &want) != nil || got != want) {
			t.Errorf("%s: reader gave %q, encoding/json %q", tc.lit, got, want)
		}
	}
}

// After the first mismatch every read is a no-op, so a caller can read
// a whole record and check once at the end.
func TestJSONReaderStopsAtFirstMismatch(t *testing.T) {
	r := NewJSONReader([]byte(`{"a":1,"b":"x"}`))
	r.Int(`{"z":`, 64)
	if s := r.Str(`,"b":`); s != "" || r.Key(`{"a":`) || r.End() {
		t.Fatal("reader went on after a mismatch")
	}
}
