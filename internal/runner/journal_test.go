package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlcache/internal/sim"
)

// writeJournal hand-builds a journal file from raw lines.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func headerLine(t *testing.T, engine string) string {
	t.Helper()
	b, err := json.Marshal(header{Schema: Schema, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func recordLine(t *testing.T, engine, fp string, res sim.Result) string {
	t.Helper()
	b, err := json.Marshal(journalRecord{Addr: Address(engine, fp), ID: "id-" + fp, Fingerprint: fp, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// openJournal opens path like OpenJournal and also returns a copy of
// the records it reloaded.
func openJournal(path, engine string) (*Journal, map[string]sim.Result, LoadStats, error) {
	j, stats, err := OpenJournal(path, engine, JournalHooks{})
	if err != nil {
		return nil, nil, stats, err
	}
	return j, j.Results(), stats, nil
}

// mustOpenJournal opens path for engine, closing it when the test
// ends.
func mustOpenJournal(t *testing.T, path, engine string, hooks JournalHooks) *Journal {
	t.Helper()
	j, _, err := OpenJournal(path, engine, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// An empty (or absent) journal resumes cleanly: no records, header
// written, appends work.
func TestEmptyJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(results) != 0 || stats.Records != 0 || stats.TornTail {
		t.Fatalf("fresh journal not empty: %d results, stats %+v", len(results), stats)
	}
	if err := j.Append(Address("e1", "fp"), "id", "fp", fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, results, stats, err = openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || results[Address("e1", "fp")] != fakeResult(1) {
		t.Fatalf("append not durable: stats %+v", stats)
	}
}

// A torn final record — the crash footprint — is discarded, not
// fatal, and the journal stays appendable without corrupting the next
// record.
func TestTruncatedLastLineDiscarded(t *testing.T) {
	full := recordLine(t, "e1", "fp-b", fakeResult(2))
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		path := writeJournal(t,
			headerLine(t, "e1"),
			recordLine(t, "e1", "fp-a", fakeResult(1)))
		// Append a torn tail: a prefix of a record, no newline.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(full[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j, results, stats, err := openJournal(path, "e1")
		if err != nil {
			t.Fatalf("cut %d: torn tail fatal: %v", cut, err)
		}
		if !stats.TornTail {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, stats)
		}
		if stats.Records != 1 || results[Address("e1", "fp-a")] != fakeResult(1) {
			t.Fatalf("cut %d: intact record lost: %+v", cut, stats)
		}
		// The file must have been truncated back: a fresh append must
		// land on a clean line and survive the next reload.
		if err := j.Append(Address("e1", "fp-c"), "id-c", "fp-c", fakeResult(3)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, results, stats, err = openJournal(path, "e1")
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records != 2 || results[Address("e1", "fp-c")] != fakeResult(3) || stats.TornTail {
			t.Fatalf("cut %d: append after torn-tail recovery broken: %+v", cut, stats)
		}
	}
}

// A complete final record missing only its newline is also treated as
// torn: accepting it and then appending would fuse two records.
func TestUnterminatedFinalLineDiscarded(t *testing.T) {
	path := writeJournal(t, headerLine(t, "e1"), recordLine(t, "e1", "fp-a", fakeResult(1)))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, []byte(recordLine(t, "e1", "fp-b", fakeResult(2)))...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !stats.TornTail || stats.Records != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if _, ok := results[Address("e1", "fp-b")]; ok {
		t.Fatal("unterminated record served")
	}
}

// Duplicate addresses resolve last-write-wins.
func TestDuplicateRecordsLastWriteWins(t *testing.T) {
	older, newer := fakeResult(1), fakeResult(9)
	path := writeJournal(t,
		headerLine(t, "e1"),
		recordLine(t, "e1", "fp-a", older),
		recordLine(t, "e1", "fp-b", fakeResult(2)),
		recordLine(t, "e1", "fp-a", newer))
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if stats.Records != 2 || stats.Duplicates != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if results[Address("e1", "fp-a")] != newer {
		t.Fatal("duplicate did not resolve last-write-wins")
	}
}

// A record whose stored address does not hash its stored fingerprint
// is rejected (recomputed), never served.
func TestHashMismatchRejected(t *testing.T) {
	good := recordLine(t, "e1", "fp-a", fakeResult(1))
	var tampered journalRecord
	if err := json.Unmarshal([]byte(recordLine(t, "e1", "fp-b", fakeResult(2))), &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.Fingerprint = "fp-not-what-was-hashed"
	tb, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	path := writeJournal(t, headerLine(t, "e1"), good, string(tb))
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if stats.Rejected != 1 || stats.Records != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if _, ok := results[tampered.Addr]; ok {
		t.Fatal("tampered record served")
	}
}

// Interior corruption is fatal — an append-only writer cannot produce
// it, so it signals real damage rather than a crash.
func TestInteriorCorruptionFatal(t *testing.T) {
	path := writeJournal(t,
		headerLine(t, "e1"),
		"{this is not json",
		recordLine(t, "e1", "fp-a", fakeResult(1)))
	_, _, _, err := openJournal(path, "e1")
	if err == nil || !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

// A foreign file (wrong schema) must never be clobbered.
func TestForeignFileRefused(t *testing.T) {
	path := writeJournal(t, `{"some":"other file"}`)
	before, _ := os.ReadFile(path)
	_, _, _, err := openJournal(path, "e1")
	if err == nil || !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v", err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("foreign file was modified")
	}
}

// A crash so early that even the header is torn restarts the journal.
func TestTornHeaderRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"schema":"wlr`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !stats.TornTail || len(results) != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if err := j.Append(Address("e1", "fp"), "id", "fp", fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, results, stats, err = openJournal(path, "e1")
	if err != nil || stats.Records != 1 {
		t.Fatalf("restart after torn header broken: %v, %+v", err, stats)
	}
}

// JSON round-trips of results through the journal are bit-exact,
// including float fields.
func TestJournalResultBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, _, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	want := fakeResult(13)
	want.Energy.Compute = 0.1 + 0.2 // a value with a non-terminating binary expansion
	want.ReserveWasted = 1e-300
	if err := j.Append(Address("e1", "fp"), "id", "fp", want); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, results, _, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if got := results[Address("e1", "fp")]; got != want {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

// A valid record not in the canonical form Append writes — spaces,
// reordered keys — is not for the one-pass reader; it loads through
// encoding/json with the same result.
func TestNonCanonicalRecordLoads(t *testing.T) {
	want := fakeResult(4)
	res, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	res = bytes.ReplaceAll(res, []byte(`":`), []byte(`": `))
	line := fmt.Sprintf(`{ "fp": "fp-a", "result": %s, "id": "id-fp-a", "addr": %q }`, res, Address("e1", "fp-a"))
	var rec journalRecord
	if readRecord([]byte(line), &rec) {
		t.Fatal("non-canonical line took the one-pass path")
	}
	path := writeJournal(t, headerLine(t, "e1"), line, recordLine(t, "e1", "fp-b", fakeResult(5)))
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if stats.Records != 2 || results[Address("e1", "fp-a")] != want {
		t.Fatalf("non-canonical record not served: stats %+v", stats)
	}
}

// A canonical record followed by garbage on its line is no record: the
// one-pass reader refuses it at the garbage, and encoding/json then
// judges the line as before — interior corruption, or a torn tail when
// it is the last line.
func TestTrailingGarbageAfterCanonicalRecord(t *testing.T) {
	bad := recordLine(t, "e1", "fp-a", fakeResult(1)) + `garbage`
	path := writeJournal(t, headerLine(t, "e1"), bad, recordLine(t, "e1", "fp-b", fakeResult(2)))
	if _, _, _, err := openJournal(path, "e1"); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("interior: err = %v, want ErrJournalCorrupt", err)
	}

	path = writeJournal(t, headerLine(t, "e1"), recordLine(t, "e1", "fp-b", fakeResult(2)), bad)
	j, results, stats, err := openJournal(path, "e1")
	if err != nil {
		t.Fatalf("last line: %v", err)
	}
	defer j.Close()
	if !stats.TornTail || stats.TornTailBytes != len(bad)+1 || stats.Records != 1 {
		t.Fatalf("last line: stats %+v, want a torn tail of %d bytes and 1 record", stats, len(bad)+1)
	}
	if _, ok := results[Address("e1", "fp-a")]; ok {
		t.Fatal("record with trailing garbage served")
	}
}
