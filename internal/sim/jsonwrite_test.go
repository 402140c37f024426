package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"wlcache/internal/energy"
)

// writeResult encodes res with the writer alone.
func writeResult(res *Result) ([]byte, bool) {
	w := NewJSONWriter(nil)
	w.Result("", res)
	return w.Bytes()
}

// A field added to Result (or to the structs it embeds) must be taught
// to JSONWriter.Result, or every journal line and cell event would
// silently lose it. Every field gets a distinct non-zero value; the
// writer must produce encoding/json's bytes for it exactly.
func TestJSONWriterCoversResult(t *testing.T) {
	var res Result
	n := 0
	fillDistinct(t, reflect.ValueOf(&res).Elem(), &n)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := writeResult(&res)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("writer drifted from encoding/json (ok %v):\n got %s\nwant %s", ok, got, want)
	}
}

// Floats: every finite value is written exactly as encoding/json writes
// it, across the 'f'/'e' cut-offs and the exponent clean-up; NaN and
// ±Inf, which encoding/json refuses, are left to it.
func TestJSONWriterFloats(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5e-9, 3.3e-12, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-10, 1e-100, 1e-300,
		1e20, 1e21, math.Nextafter(1e21, 0), 1.5e21, 1e100, 1e300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		0.000018432999999998887,
	} {
		w := NewJSONWriter(nil)
		w.Float("", f)
		got, ok := w.Bytes()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("%v (%#x): writer gave %s (ok %v), encoding/json %s", f, math.Float64bits(f), got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := NewJSONWriter(nil)
		w.Float("", f)
		if _, ok := w.Bytes(); ok {
			t.Errorf("%v: writer accepted a value encoding/json refuses", f)
		}
	}
}

// Strings: printable ASCII that encoding/json writes as is goes out as
// is; anything encoding/json would escape is left to it.
func TestJSONWriterStrings(t *testing.T) {
	for _, tc := range []struct {
		s      string
		accept bool
	}{
		{"", true}, {"fp=1 geom=8192/2/64", true}, {"wl/sha/tr1", true},
		{`a"b`, false}, {`a\b`, false}, {"a<b", false}, {"a>b", false},
		{"a&b", false}, {"tab\there", false}, {"café", false}, {" ", false},
	} {
		w := NewJSONWriter(nil)
		w.Str("", tc.s)
		got, ok := w.Bytes()
		if ok != tc.accept {
			t.Errorf("%q: accepted %v, want %v", tc.s, ok, tc.accept)
			continue
		}
		if want, _ := json.Marshal(tc.s); ok && !bytes.Equal(got, want) {
			t.Errorf("%q: writer gave %s, encoding/json %s", tc.s, got, want)
		}
	}
}

// FuzzJSONWriterResult checks the writer against encoding/json on
// fuzzer-chosen Results: whatever the writer finishes is byte-identical
// to encoding/json's encoding, and a value encoding/json refuses is
// never finished.
func FuzzJSONWriterResult(f *testing.F) {
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7,
		5e-324, 2.2250738585072014e-308, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1), 0.000018432999999998887,
	}
	strs := []string{"WL-Cache", `<>&"\`, "a<b", `q"`, "\x7f", "é", " ", "\n"}
	for i, x := range floats {
		f.Add(strs[i%len(strs)], int64(-i)<<40, uint64(i)<<50, x, floats[(i+1)%len(floats)])
	}
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, x, y float64) {
		res := Result{
			Design: s, Workload: s + "w", Trace: "tr1",
			ExecTime: i, OffTime: -i, Instructions: u, Outages: u >> 7,
			Energy:        energy.Breakdown{CacheRead: x, MemWrite: y, Leak: x / 3},
			ReserveWasted: x * y,
			Checksum:      uint32(u),
		}
		res.NVMTraffic.Writes = u
		res.Extra.StallTime = i
		res.Extra.Reconfigs = int(int32(i))
		got, ok := writeResult(&res)
		want, err := json.Marshal(res)
		if ok && (err != nil || !bytes.Equal(got, want)) {
			t.Fatalf("writer and encoding/json disagree (encoding/json err %v):\nwriter:        %s\nencoding/json: %s", err, got, want)
		}
	})
}
