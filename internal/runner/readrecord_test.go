package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"wlcache/internal/sim"
)

// A field added to the journal record must be taught to readRecord, or
// every reload would silently take the slow path. Every field gets a
// distinct non-zero value (sim's own test covers the Result inside);
// readRecord must accept encoding/json's bytes and give the record back
// exactly.
func TestReadRecordCoversRecord(t *testing.T) {
	var want journalRecord
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Interface().(type) {
		case string:
			f.SetString(fmt.Sprintf("v%d", i))
		case sim.Result:
			f.Set(reflect.ValueOf(fakeResult(i)))
		default:
			t.Fatalf("journal record field %s has type %s: teach readRecord and this test about it", v.Type().Field(i).Name, f.Type())
		}
	}
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
