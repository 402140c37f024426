package runner

import (
	"errors"
	"os"
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

	j, _, stats, err := openJournal(path, "e1")
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
// last-write-wins duplicates, address-mismatch rejects, and every
// record of a journal refused for another engine version, which stays
// byte for byte as it was.
func TestLoadStatsDroppedRecords(t *testing.T) {
	t.Run("duplicates", func(t *testing.T) {
		path := writeJournal(t,
			headerLine(t, "e1"),
			recordLine(t, "e1", "fp-a", fakeResult(1)),
			recordLine(t, "e1", "fp-a", fakeResult(2)),
			recordLine(t, "e1", "fp-a", fakeResult(3)))
		j, results, stats, err := openJournal(path, "e1")
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
		j, _, stats, err := openJournal(path, "e1")
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
		before, _ := os.ReadFile(path)
		_, _, stats, err := openJournal(path, "e2")
		if !errors.Is(err, ErrForeignEngine) {
			t.Fatalf("err = %v, want ErrForeignEngine", err)
		}
		if !stats.EngineMismatch || stats.Dropped != 2 {
			t.Fatalf("stats %+v, want both stale records dropped", stats)
		}
		if after, _ := os.ReadFile(path); string(before) != string(after) {
			t.Fatal("foreign-engine journal was modified")
		}
	})
}
