package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"wlcache/internal/sim"
)

// streamLines returns testdata/stream.ndjson line by line: a stream the
// server sent — accepted, three cells (one failed), done.
func streamLines(tb testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/stream.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// streamFrom serves body as the response to a sweep submission and
// returns the client's stream, with the accepted event consumed. With
// abort set, the handler then drops the connection, as a server killed
// mid-stream would.
func streamFrom(t *testing.T, body []byte, abort bool) *Stream {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
		w.(http.Flusher).Flush()
		if abort {
			panic(http.ErrAbortHandler)
		}
	}))
	t.Cleanup(hs.Close)
	cl := &Client{Base: hs.URL}
	st, err := cl.Submit(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// unmarshalEvent decodes line with encoding/json alone.
func unmarshalEvent(t *testing.T, line []byte) Event {
	t.Helper()
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// A clean stream yields every cell, then the done event, then io.EOF;
// each event is what encoding/json makes of its line.
func TestStreamCleanEnd(t *testing.T) {
	lines := streamLines(t)
	st := streamFrom(t, append(bytes.Join(lines, []byte("\n")), '\n'), false)
	if want := unmarshalEvent(t, lines[0]); !reflect.DeepEqual(st.Accepted, want) {
		t.Fatalf("accepted = %+v, want %+v", st.Accepted, want)
	}
	cells, done, err := st.Drain()
	if err != nil || done == nil || len(cells) != len(lines)-2 {
		t.Fatalf("Drain = %d cells, done %v, err %v; want %d cells and a done event", len(cells), done, err, len(lines)-2)
	}
	for i, ev := range append(cells, *done) {
		if want := unmarshalEvent(t, lines[i+1]); !reflect.DeepEqual(ev, want) {
			t.Fatalf("event %d = %+v, want %+v", i+1, ev, want)
		}
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next after done = %v, want io.EOF", err)
	}
}

// A stream cut mid-line — by a server that dropped the connection, or
// by a body that ends without the line's newline — is an error, not a
// clean end: Drain returns the cells before the cut and no done event.
func TestStreamCutMidLine(t *testing.T) {
	lines := streamLines(t)
	body := bytes.Join(lines[:2], []byte("\n"))
	body = append(body, '\n')
	body = append(body, lines[2][:len(lines[2])/2]...)
	for _, abort := range []bool{true, false} {
		cells, done, err := streamFrom(t, body, abort).Drain()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("abort %v: Drain err = %v, want io.ErrUnexpectedEOF", abort, err)
		}
		if len(cells) != 1 || done != nil {
			t.Errorf("abort %v: Drain = %d cells, done %v; want the 1 cell before the cut and no done event", abort, len(cells), done)
		}
	}
}

// A line longer than the client's read buffer decodes whole, and an
// error string that encoding/json had to escape decodes identically
// through the encoding/json path.
func TestStreamLongAndEscapedLines(t *testing.T) {
	want := []Event{
		{Type: EventCell, Index: 1, ID: "long", Source: "failed", Error: strings.Repeat("x", 3*4096)},
		{Type: EventCell, Index: 2, ID: "escaped", Source: "failed", Error: `reserve <3.5 V> is "unreachable" & so`},
	}
	lines := streamLines(t)
	body := append(bytes.Clone(lines[0]), '\n')
	for i, ev := range want {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if fast := readEvent(line, new(Event)); fast != (i == 0) {
			t.Fatalf("event %q: one-pass reader accepted %v, want %v", ev.ID, fast, i == 0)
		}
		body = append(append(body, line...), '\n')
	}
	body = append(append(body, lines[len(lines)-1]...), '\n')
	cells, done, err := streamFrom(t, body, false).Drain()
	if err != nil || done == nil {
		t.Fatalf("Drain: done %v, err %v", done, err)
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cells = %+v\nwant %+v", cells, want)
	}
}

// distinctCellEvent gives every field a cell event can carry a distinct
// non-zero value (sim's own tests cover the Result inside), so a field a
// codec skips or misplaces cannot go unnoticed. Metrics rides on done
// events only, which stay on encoding/json.
func distinctCellEvent(tb testing.TB) Event {
	ev := Event{Type: EventCell}
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Interface().(type) {
		case string:
			if name != "Type" {
				f.SetString(fmt.Sprintf("v%d", i))
			}
		case int:
			f.SetInt(int64(i))
		case *sim.Result:
			f.Set(reflect.ValueOf(&sim.Result{Design: "wl", ExecTime: 5, ReserveWasted: 1e-9, Checksum: 7}))
		case *SweepMetrics:
		default:
			tb.Fatalf("Event field %s has type %s: teach readEvent, appendEvent and their tests about it", name, f.Type())
		}
	}
	return ev
}

// A field added to the cell Event must be taught to readEvent, or every
// cell of every stream would silently take the slow path: readEvent
// must accept encoding/json's bytes for a cell event and give it back
// exactly.
func TestReadEventCoversCellEvent(t *testing.T) {
	want := distinctCellEvent(t)
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if !readEvent(line, &got) {
		t.Fatalf("readEvent rejected encoding/json's bytes for a cell event:\n%s", line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readEvent round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

// A field added to Event must be taught to appendEvent too, or the
// server would silently drop it from every stream: appendEvent must
// write a cell event exactly as the server's json.Encoder would, and
// leave a done event to encoding/json.
func TestAppendEventCoversCellEvent(t *testing.T) {
	ev := distinctCellEvent(t)
	checkAppendEvent(t, &ev, true)
	ev.Metrics = &SweepMetrics{Cells: 1}
	if _, ok := appendEvent(nil, &ev); ok {
		t.Fatal("appendEvent wrote an event carrying Metrics")
	}
}

// checkAppendEvent fails t unless appendEvent writes ev exactly as a
// json.Encoder does, newline included, or gives up on an event
// encoding/json would have to escape or refuse; with must set, giving
// up fails too.
func checkAppendEvent(t *testing.T, ev *Event, must bool) {
	t.Helper()
	got, ok := appendEvent([]byte("prefix"), ev)
	if !ok {
		if must {
			t.Fatalf("appendEvent gave up on %+v", ev)
		}
		return
	}
	var want bytes.Buffer
	want.WriteString("prefix")
	err := json.NewEncoder(&want).Encode(ev)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendEvent and encoding/json disagree (encoding/json err %v):\nwriter:        %s\nencoding/json: %s", err, got, want.Bytes())
	}
}

// Every event of a stream the server sent, real simulation floats
// included, is rewritten byte for byte, except the done event, which
// stays on encoding/json.
func TestAppendEventRewritesRealLines(t *testing.T) {
	lines := streamLines(t)
	for i, line := range lines {
		ev := unmarshalEvent(t, line)
		if i == len(lines)-1 {
			if _, ok := appendEvent(nil, &ev); ok || ev.Type != EventDone {
				t.Fatalf("last line: appendEvent accepted %v a %q event", ok, ev.Type)
			}
			continue
		}
		checkAppendEvent(t, &ev, true)
	}
}

// FuzzReadEvent checks the one-pass reader against encoding/json:
// whenever readEvent accepts a line, encoding/json accepts it too and
// decodes the same event. Both are compared re-encoded: encoding/json
// writes every float64 in its shortest round-trip form, so equal bytes
// mean equal bits, -0 included.
func FuzzReadEvent(f *testing.F) {
	for _, line := range streamLines(f) {
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
		var fast, slow Event
		if !readEvent(line, &fast) {
			return
		}
		if err := json.Unmarshal(line, &slow); err != nil {
			t.Fatalf("readEvent accepted a line encoding/json rejects (%v):\n%s", err, line)
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
			t.Fatalf("readEvent and encoding/json disagree on\n%s\nreader:        %s\nencoding/json: %s", line, a, b)
		}
	})
}

// FuzzAppendEvent checks the writer against encoding/json on every
// event encoding/json decodes from a fuzzer-chosen line, with the
// result's reserve replaced by a fuzzer-chosen float (JSON text cannot
// carry NaN or ±Inf): appendEvent writes encoding/json's bytes or gives
// up.
func FuzzAppendEvent(f *testing.F) {
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7,
		5e-324, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	}
	lines := streamLines(f)
	escaped, err := json.Marshal(Event{Type: EventCell, ID: `<>&"\`, Error: "reserve <3.5 V> & \u2028", Result: &sim.Result{}})
	if err != nil {
		f.Fatal(err)
	}
	lines = append(lines, escaped)
	for i, x := range floats {
		f.Add(lines[i%len(lines)], x)
	}
	f.Fuzz(func(t *testing.T, line []byte, x float64) {
		var ev Event
		if json.Unmarshal(line, &ev) != nil {
			return
		}
		if ev.Result != nil {
			ev.Result.ReserveWasted = x
		}
		checkAppendEvent(t, &ev, false)
	})
}
