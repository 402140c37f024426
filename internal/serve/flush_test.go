package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// flushRecorder is a response writer that counts Flush calls and
// remembers how many stream lines had been flushed when the done event
// was written.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes        int
	flushedLines   int // lines written before the last Flush
	flushedAtDone  int // flushedLines when the done event was written
	sawDoneWritten bool
}

func (f *flushRecorder) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`{"type":"done"`)) {
		f.flushedAtDone, f.sawDoneWritten = f.flushedLines, true
	}
	return f.ResponseRecorder.Write(b)
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.flushedLines = bytes.Count(f.Body.Bytes(), []byte{'\n'})
	f.ResponseRecorder.Flush()
}

// sweepThrough submits spec to s's handler directly and returns the
// recorder and the stream's cell events.
func sweepThrough(t *testing.T, s *Server, spec Spec) (*flushRecorder, []Event) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if n := spec.NumCells() + 2; len(lines) != n {
		t.Fatalf("stream has %d lines, want %d:\n%s", len(lines), n, rec.Body.String())
	}
	var cells []Event
	for _, line := range lines[1 : len(lines)-1] {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, ev)
	}
	return rec, cells
}

// A warm resubmission of the 78-cell matrix streams its journal-served
// cells as a burst: the handler flushes a handful of times — the
// accepted event, the burst, the done event — not once per cell. The
// bound leaves room for the scheduler to split the burst a few times.
func TestWarmSweepFlushesPerBurst(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{}
	j, _, err := runner.OpenJournal(filepath.Join(dir, spec.ID(sim.EngineVersion)+".jsonl"), sim.EngineVersion, runner.JournalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spec.cells() {
		res := sim.Result{Design: p.meta.Kind, Workload: p.meta.Workload, Trace: p.meta.Trace, ExecTime: 1}
		if err := j.Append(runner.Address(sim.EngineVersion, p.cell.Fingerprint), p.cell.ID, p.cell.Fingerprint, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	rec, cells := sweepThrough(t, s, spec)
	if len(cells) != 78 {
		t.Fatalf("%d cells, want 78", len(cells))
	}
	for _, ev := range cells {
		if ev.Source != string(runner.SourceJournal) {
			t.Fatalf("cell %s served from %q, want journal", ev.ID, ev.Source)
		}
	}
	const maxFlushes = 10
	if rec.flushes > maxFlushes {
		t.Fatalf("a warm 78-cell sweep flushed %d times, want at most %d", rec.flushes, maxFlushes)
	}
}

// A computed cell reaches the client as soon as it is written: its
// event is flushed before the sweep's done event is written.
func TestComputedCellFlushedBeforeDone(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	rec, cells := sweepThrough(t, s, Spec{Designs: []string{"nocache"}, Workloads: []string{"adpcmencode"}, Traces: []string{"none"}})
	if cells[0].Source != string(runner.SourceComputed) {
		t.Fatalf("cell served from %q, want computed", cells[0].Source)
	}
	if !rec.sawDoneWritten || rec.flushedAtDone != 2 {
		t.Fatalf("done event written (%v) with %d lines flushed, want the accepted and the cell event", rec.sawDoneWritten, rec.flushedAtDone)
	}
}
