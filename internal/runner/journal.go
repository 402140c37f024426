package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"
	"time"

	"wlcache/internal/sim"
)

// Schema identifies the journal file format. The first line of every
// journal is a header record carrying this schema tag plus the engine
// version; every following line is one completed cell.
const Schema = "wlrun/v1"

// Address computes the content address of a cell: a hex SHA-256 over
// the journal schema, the engine version and the cell fingerprint
// (the canonical serialization of design config + workload + trace
// params the caller builds). Two cells share an address exactly when
// the same engine would provably compute the same result for both.
func Address(engine, fingerprint string) string {
	h := sha256.New()
	h.Write([]byte(Schema))
	h.Write([]byte{0})
	h.Write([]byte(engine))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// header is the journal's first line.
type header struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
}

// journalRecord is one completed cell. Addr must equal
// Address(engine, Fingerprint) — reload rejects records where it does
// not, so a tampered or mis-keyed record is recomputed, never served.
type journalRecord struct {
	Addr        string     `json:"addr"`
	ID          string     `json:"id"`
	Fingerprint string     `json:"fp"`
	Result      sim.Result `json:"result"`
}

// LoadStats reports what reloading a journal found and discarded.
type LoadStats struct {
	// Records is the number of valid records served from the journal
	// file (after last-write-wins deduplication).
	Records int
	// Duplicates counts records superseded by a later record with the
	// same address (the earlier write loses).
	Duplicates int
	// Rejected counts well-formed records whose stored address did not
	// match the hash of their stored fingerprint; they are skipped.
	Rejected int
	// TornTail is true when the final line was a torn (truncated or
	// unterminated) record, discarded on reload — the expected damage
	// shape for a crash mid-append.
	TornTail bool
	// TornTailBytes counts the bytes discarded with the torn tail, so
	// reload loss is quantified, never silent.
	TornTailBytes int
	// Dropped counts every whole record present in the file but not
	// served on reload: Duplicates + Rejected + every record of a
	// journal refused on an engine mismatch. The torn tail is not a
	// whole record and is accounted by TornTailBytes instead.
	Dropped int
	// EngineMismatch is true when the journal belonged to a different
	// engine version: none of its addresses could ever be served, so
	// all of its records count as dropped and the file is refused
	// untouched (ErrForeignEngine).
	EngineMismatch bool
}

// Journal is an append-only, fsync'd JSONL file of completed sweep
// cells, plus the in-memory index of its valid records. Appends are
// serialized; each record is durable (written and synced) before
// Append returns, which is what makes a sweep killed at an arbitrary
// instant resumable with at most the in-flight record lost. One open
// Journal may back any number of sweeps, one after another or at
// once: the file is read once, at open, and every later lookup is
// served from the index.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	engine   string
	appended int
	// results holds every valid record by content address: those
	// reloaded at open plus every record appended since.
	results map[string]sim.Result
	// stats is what the open-time reload found and discarded.
	stats LoadStats
	hooks JournalHooks
}

// JournalHooks are a journal's observers. They are bound at open for
// the life of the handle and run under its append lock; keep them
// cheap.
type JournalHooks struct {
	// AfterAppend, when set, runs after the n-th record appended
	// through this handle becomes durable. The chaos harness kills the
	// process here to get a bit-exactly known journal state.
	AfterAppend func(n int)
	// ObserveFsync, when set, receives the duration of each record's
	// fsync — the durability tax every computed cell pays.
	ObserveFsync func(d time.Duration)
}

// OpenJournal opens (creating if needed) the journal at path for the
// given engine version, reloads every valid record into the journal's
// index, and returns the journal ready for appends plus what the
// reload discarded.
//
// Reload is truncation-tolerant: a torn final record — the footprint
// of a crash mid-append — is discarded and the file truncated back to
// the last durable record, not treated as fatal. Corruption anywhere
// else wraps ErrJournalCorrupt. Duplicate addresses resolve
// last-write-wins. A file this engine did not write — a foreign schema
// (ErrJournalCorrupt) or another engine version (ErrForeignEngine,
// with its records counted as dropped) — is refused unmodified.
func OpenJournal(path, engine string, hooks JournalHooks) (*Journal, LoadStats, error) {
	var stats LoadStats
	results := make(map[string]sim.Result)

	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, stats, err
	}

	keep := 0 // byte offset past the last line worth preserving
	fresh := len(data) == 0

	if !fresh {
		keep, fresh, err = scanJournal(data, engine, results, &stats)
		if err != nil {
			return nil, stats, err
		}
	}

	if fresh {
		keep = 0
	}
	if keep < len(data) {
		// Drop the torn tail before appending: new records must start
		// on a clean line.
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, stats, err
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, err
	}
	j := &Journal{f: f, engine: engine, results: results, stats: stats}
	if fresh {
		line, err := json.Marshal(header{Schema: Schema, Engine: engine})
		if err != nil {
			f.Close()
			return nil, stats, err
		}
		if err := j.writeLine(line); err != nil {
			f.Close()
			return nil, stats, err
		}
	}
	// Bound after the header, so the hooks see cell records only.
	j.hooks = hooks
	return j, stats, nil
}

// scanJournal walks the raw file contents, filling results, and
// returns the preserve-up-to offset plus whether the file must be
// restarted from scratch (torn header).
func scanJournal(data []byte, engine string, results map[string]sim.Result, stats *LoadStats) (keep int, fresh bool, err error) {
	off, lineNo := 0, 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		torn := nl < 0
		var line []byte
		var end int
		if torn {
			line, end = data[off:], len(data)
		} else {
			line, end = data[off:off+nl], off+nl+1
		}
		lineNo++

		if lineNo == 1 {
			var h header
			if jerr := json.Unmarshal(line, &h); jerr != nil || torn {
				if torn {
					// Crash while creating the journal: the header
					// itself is the torn tail. Restart.
					stats.TornTail = true
					stats.TornTailBytes = len(data)
					return 0, true, nil
				}
				return 0, false, fmt.Errorf("%w: unreadable header: %v", ErrJournalCorrupt, jerr)
			}
			if h.Schema != Schema {
				// Never clobber a file we did not write.
				return 0, false, fmt.Errorf("%w: schema %q, want %q", ErrJournalCorrupt, h.Schema, Schema)
			}
			if h.Engine != engine {
				stats.EngineMismatch = true
				stats.Dropped += countLines(data[end:])
				return 0, false, fmt.Errorf("%w: engine %q, want %q", ErrForeignEngine, h.Engine, engine)
			}
			keep, off = end, end
			continue
		}

		var r journalRecord
		if jerr := decodeRecord(line, &r); jerr != nil || torn {
			if end == len(data) {
				stats.TornTail = true
				stats.TornTailBytes = len(data) - keep
				return keep, false, nil
			}
			return 0, false, fmt.Errorf("%w: unreadable record on line %d: %v", ErrJournalCorrupt, lineNo, jerr)
		}
		keep, off = end, end
		if r.Addr != Address(engine, r.Fingerprint) {
			stats.Rejected++
			stats.Dropped++
			continue
		}
		if _, dup := results[r.Addr]; dup {
			stats.Duplicates++
			stats.Dropped++
			stats.Records--
		}
		results[r.Addr] = r.Result
		stats.Records++
	}
	return keep, false, nil
}

// decodeRecord decodes one record line: through readRecord when the
// line is in the canonical form Append writes, and through
// encoding/json otherwise — a hand-edited, escaped, torn or corrupt
// line keeps encoding/json's verdict and error text.
func decodeRecord(line []byte, rec *journalRecord) error {
	if readRecord(line, rec) {
		return nil
	}
	*rec = journalRecord{}
	return json.Unmarshal(line, rec)
}

// readRecord reads a record line in the exact bytes encoding/json
// writes for it, in one pass. It reports false, leaving rec partly
// filled, at the first byte it does not expect.
func readRecord(line []byte, rec *journalRecord) bool {
	r := sim.NewJSONReader(line)
	rec.Addr = r.Str(`{"addr":`)
	rec.ID = r.Str(`,"id":`)
	rec.Fingerprint = r.Str(`,"fp":`)
	r.Result(`,"result":`, &rec.Result)
	r.Lit(`}`)
	return r.End()
}

// appendRecord appends rec as one journal line in the exact bytes
// encoding/json writes for it. It reports false when the writer cannot
// promise those bytes (a string needing escapes, a non-finite float);
// the caller then marshals rec with encoding/json.
func appendRecord(dst []byte, rec *journalRecord) ([]byte, bool) {
	w := sim.NewJSONWriter(dst)
	w.Str(`{"addr":`, rec.Addr)
	w.Str(`,"id":`, rec.ID)
	w.Str(`,"fp":`, rec.Fingerprint)
	w.Result(`,"result":`, &rec.Result)
	w.Lit(`}`)
	return w.Bytes()
}

// countLines counts newline-terminated lines — whole records; a
// trailing partial line is torn, not a record.
func countLines(data []byte) int {
	return bytes.Count(data, []byte{'\n'})
}

// Append durably records one completed cell: the line is written and
// fsync'd before Append returns, and the record joins the index.
func (j *Journal) Append(addr, id, fingerprint string, res sim.Result) error {
	rec := journalRecord{Addr: addr, ID: id, Fingerprint: fingerprint, Result: res}
	line, ok := appendRecord(nil, &rec)
	if !ok {
		var err error
		if line, err = json.Marshal(rec); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writeLine(line); err != nil {
		return err
	}
	j.results[addr] = res
	j.appended++
	if j.hooks.AfterAppend != nil {
		j.hooks.AfterAppend(j.appended)
	}
	return nil
}

// writeLine appends one newline-terminated record and syncs. Callers
// other than OpenJournal must hold j.mu.
func (j *Journal) writeLine(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	start := time.Now()
	err := j.f.Sync()
	if err == nil && j.hooks.ObserveFsync != nil {
		j.hooks.ObserveFsync(time.Since(start))
	}
	return err
}

// lookup returns the journaled result at addr; a nil journal holds
// nothing.
func (j *Journal) lookup(addr string) (sim.Result, bool) {
	if j == nil {
		return sim.Result{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.results[addr]
	return res, ok
}

// Results returns a copy of every valid record, keyed by content
// address.
func (j *Journal) Results() map[string]sim.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return maps.Clone(j.results)
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
