package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"wlcache/internal/sim"
)

// distinctRecord gives every field of a journal record a distinct
// non-zero value (sim's own tests cover the Result inside), so a field
// a codec skips or misplaces cannot go unnoticed.
func distinctRecord(tb testing.TB) journalRecord {
	var rec journalRecord
	v := reflect.ValueOf(&rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Interface().(type) {
		case string:
			f.SetString(fmt.Sprintf("v%d", i))
		case sim.Result:
			f.Set(reflect.ValueOf(fakeResult(i)))
		default:
			tb.Fatalf("journal record field %s has type %s: teach readRecord, appendRecord and their tests about it", v.Type().Field(i).Name, f.Type())
		}
	}
	return rec
}

// A field added to the journal record must be taught to readRecord, or
// every reload would silently take the slow path: readRecord must
// accept encoding/json's bytes for a record and give it back exactly.
func TestReadRecordCoversRecord(t *testing.T) {
	want := distinctRecord(t)
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got journalRecord
	if !readRecord(line, &got) {
		t.Fatalf("readRecord rejected encoding/json's bytes for a record:\n%s", line)
	}
	if got != want {
		t.Fatalf("readRecord round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

// A field added to the journal record must be taught to appendRecord
// too, or Append would silently drop it from every journal:
// appendRecord must write encoding/json's bytes for a record exactly.
func TestAppendRecordCoversRecord(t *testing.T) {
	rec := distinctRecord(t)
	checkAppendRecord(t, &rec, true)
}

// checkAppendRecord fails t unless appendRecord writes rec exactly as
// encoding/json does, or gives up on a record
// encoding/json would have to escape or refuse; with must set, giving
// up fails too.
func checkAppendRecord(t *testing.T, rec *journalRecord, must bool) {
	t.Helper()
	got, ok := appendRecord([]byte("prefix"), rec)
	if !ok {
		if must {
			t.Fatalf("appendRecord gave up on %+v", rec)
		}
		return
	}
	want, err := json.Marshal(rec)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendRecord and encoding/json disagree (encoding/json err %v):\nwriter:        %s\nencoding/json: %s", err, got, want)
	}
}

// Every line the service wrote in testdata/journal.jsonl, real
// simulation floats included, is rewritten byte for byte.
func TestAppendRecordRewritesRealLines(t *testing.T) {
	for _, line := range journalLines(t)[1:] {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		checkAppendRecord(t, &rec, true)
	}
}

// Lines an engine wrote take the one-pass path, including the real
// floats of a simulation: testdata/journal.jsonl is a journal the
// service wrote.
func TestReadRecordAcceptsRealLines(t *testing.T) {
	lines := journalLines(t)
	for _, line := range lines[1:] {
		var rec journalRecord
		if !readRecord(line, &rec) {
			t.Fatalf("readRecord rejected a journal line:\n%s", line)
		}
	}
}

func journalLines(tb testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/journal.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// FuzzReadRecord checks the one-pass reader against encoding/json:
// whenever readRecord accepts a line, encoding/json accepts it too and
// decodes the same record. Both are compared re-encoded: encoding/json
// writes every float64 in its shortest round-trip form, so equal bytes
// mean equal bits, -0 included.
func FuzzReadRecord(f *testing.F) {
	for _, line := range journalLines(f) {
		f.Add(line)
		for _, cut := range []int{1, len(line) / 2, len(line) - 1} {
			f.Add(line[:cut])
		}
		for at := 7; at < len(line); at += max(len(line)/5, 1) {
			flipped := bytes.Clone(line)
			flipped[at] ^= 0x01
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast, slow journalRecord
		if !readRecord(line, &fast) {
			return
		}
		if err := json.Unmarshal(line, &slow); err != nil {
			t.Fatalf("readRecord accepted a line encoding/json rejects (%v):\n%s", err, line)
		}
		a, err := json.Marshal(fast)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(slow)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("readRecord and encoding/json disagree on\n%s\nreader:        %s\nencoding/json: %s", line, a, b)
		}
	})
}

// FuzzAppendRecord checks the writer against encoding/json on every
// record encoding/json decodes from a fuzzer-chosen line, with one of
// its floats replaced by a fuzzer-chosen value (JSON text cannot carry
// NaN or ±Inf): appendRecord writes encoding/json's bytes or gives up.
func FuzzAppendRecord(f *testing.F) {
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7,
		5e-324, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	}
	lines := journalLines(f)[1:]
	escaped, err := json.Marshal(journalRecord{Addr: "a", ID: `<>&"\`, Fingerprint: "fp=\u2028", Result: fakeResult(2)})
	if err != nil {
		f.Fatal(err)
	}
	lines = append(lines, escaped)
	for i, x := range floats {
		f.Add(lines[i%len(lines)], x)
	}
	f.Fuzz(func(t *testing.T, line []byte, x float64) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		rec.Result.Energy.Leak = x
		checkAppendRecord(t, &rec, false)
	})
}
