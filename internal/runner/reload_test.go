package runner

import (
	"os"
	"path/filepath"
	"testing"
)

// Reload surfaces exactly how many bytes of torn tail were discarded.
func TestLoadStatsTornTailBytes(t *testing.T) {
	full := recordLine(t, "e1", "fp-b", fakeResult(2))
	cut := len(full) / 2
	path := writeJournal(t,
		headerLine(t, "e1"),
		recordLine(t, "e1", "fp-a", fakeResult(1)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(full[:cut]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, _, stats, err := OpenJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !stats.TornTail || stats.TornTailBytes != cut {
		t.Fatalf("torn tail of %d bytes reported as %+v", cut, stats)
	}
	// The torn tail is not a whole record: it must not inflate Dropped.
	if stats.Dropped != 0 {
		t.Fatalf("torn tail counted as dropped records: %+v", stats)
	}
}

// Dropped aggregates every whole record the reload discarded:
// last-write-wins duplicates, address-mismatch rejects, and wholesale
// engine-mismatch discards.
func TestLoadStatsDroppedRecords(t *testing.T) {
	t.Run("duplicates", func(t *testing.T) {
		path := writeJournal(t,
			headerLine(t, "e1"),
			recordLine(t, "e1", "fp-a", fakeResult(1)),
			recordLine(t, "e1", "fp-a", fakeResult(2)),
			recordLine(t, "e1", "fp-a", fakeResult(3)))
		j, results, stats, err := OpenJournal(path, "e1")
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if stats.Duplicates != 2 || stats.Dropped != 2 {
			t.Fatalf("stats %+v, want 2 duplicates counted as dropped", stats)
		}
		if results[Address("e1", "fp-a")] != fakeResult(3) {
			t.Fatal("last write did not win")
		}
	})
	t.Run("rejected", func(t *testing.T) {
		path := writeJournal(t,
			headerLine(t, "e1"),
			// A record whose address was computed under a different
			// engine: recomputed on reload, counted as dropped.
			recordLine(t, "other-engine", "fp-a", fakeResult(1)),
			recordLine(t, "e1", "fp-b", fakeResult(2)))
		j, _, stats, err := OpenJournal(path, "e1")
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if stats.Rejected != 1 || stats.Dropped != 1 || stats.Records != 1 {
			t.Fatalf("stats %+v, want 1 reject counted as dropped", stats)
		}
	})
	t.Run("engine mismatch", func(t *testing.T) {
		path := writeJournal(t,
			headerLine(t, "old-engine"),
			recordLine(t, "old-engine", "fp-a", fakeResult(1)),
			recordLine(t, "old-engine", "fp-b", fakeResult(2)))
		j, results, stats, err := OpenJournal(path, "e2")
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(results) != 0 || stats.Dropped != 2 {
			t.Fatalf("stats %+v with %d results, want both stale records dropped", stats, len(results))
		}
	})
}

// ReadJournal serves the journal's records without mutating the file:
// no truncation, no header write, byte-identical before and after.
func TestReadJournalIsPure(t *testing.T) {
	full := recordLine(t, "e1", "fp-b", fakeResult(2))
	path := writeJournal(t,
		headerLine(t, "e1"),
		recordLine(t, "e1", "fp-a", fakeResult(1)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	results, stats, err := ReadJournal(path, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[Address("e1", "fp-a")] != fakeResult(1) {
		t.Fatalf("results %v", results)
	}
	if !stats.TornTail || stats.TornTailBytes != len(full)/2 {
		t.Fatalf("stats %+v", stats)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("ReadJournal mutated the journal file")
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	results, stats, err := ReadJournal(filepath.Join(t.TempDir(), "absent.jsonl"), "e1")
	if err != nil {
		t.Fatalf("missing journal must read as empty, got %v", err)
	}
	if len(results) != 0 || stats.Records != 0 {
		t.Fatalf("results %v stats %+v", results, stats)
	}
}
