// Package hist is the longitudinal run-history store: an append-only,
// content-addressed JSONL log (wlhist/v1) of benchmark and
// observability results, keyed so that any two entries are either
// comparable or explicitly not. Host-speed metrics carry
// the full host fingerprint and only ever gate against entries from
// the same fingerprint; simulated outcomes (checksums, outage counts)
// are host-independent and gate across hosts as long as the engine
// versions do not conflict. On top of the store sit trend extraction
// (per-metric time series with the good/bad direction each document
// declares), the one drift gate for CI, and terminal/HTML renderers.
package hist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"wlcache/internal/obs"
)

// Schema identifies the store's line format.
const Schema = "wlhist/v1"

// Unknown is the placeholder for a key field that could not be
// collected. Perf comparability treats two unknowns as equal (same
// meaning: "the one machine we never fingerprinted"), while exact
// comparability treats unknown as a wildcard.
const Unknown = "unknown"

// Metric kinds. The kind decides how the drift gate judges a change.
const (
	// KindPerf is a host-speed measurement (wall clock, throughput):
	// gated by relative threshold, only against the same host
	// fingerprint.
	KindPerf = "perf"
	// KindExact is a deterministic simulated outcome (checksum,
	// outage count): any unexplained change is drift regardless of
	// host.
	KindExact = "exact"
	// KindInfo is recorded for trends but never gates.
	KindInfo = "info"
)

// Source says where an entry came from: the ingested document format
// and the file (or URL) it was read from.
type Source struct {
	Format string `json:"format"`
	Name   string `json:"name,omitempty"`
}

// Key is the comparability key. Two entries' metrics may only be
// compared when their keys say the numbers mean the same thing.
type Key struct {
	// Engine is the simulator version (sim.EngineVersion) that
	// produced the numbers, or Unknown.
	Engine string `json:"engine"`
	// GitCommit is the VCS revision of the build, when known. It is
	// recorded for provenance and display; it does not gate.
	GitCommit string `json:"git_commit,omitempty"`
	// Host is the host fingerprint (hostinfo.Info.Fingerprint), or
	// Unknown. Perf metrics compare only within one fingerprint.
	Host string `json:"host"`
}

// Metric is one recorded scalar.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Dir is the manifest encoding of the metric's good direction
	// ("lower", "higher", or "" / "none").
	Dir  string `json:"dir,omitempty"`
	Kind string `json:"kind"`
}

// Entry is one run: a flat map of metrics under one comparability
// key. The ID is the hex SHA-256 of the entry body (label, source,
// key, metrics) — Seq and RecordedUnix are excluded so re-recording
// the same document is a no-op and committed baselines stay
// byte-stable.
type Entry struct {
	Schema       string            `json:"schema"`
	ID           string            `json:"id"`
	Seq          int               `json:"seq"`
	RecordedUnix int64             `json:"recorded_unix,omitempty"`
	Label        string            `json:"label,omitempty"`
	Source       Source            `json:"source"`
	Key          Key               `json:"key"`
	Metrics      map[string]Metric `json:"metrics"`
}

// contentID computes the entry's content address. encoding/json
// serializes maps with sorted keys, so the hash is deterministic.
func contentID(e Entry) string {
	body := struct {
		Label   string            `json:"label"`
		Source  Source            `json:"source"`
		Key     Key               `json:"key"`
		Metrics map[string]Metric `json:"metrics"`
	}{e.Label, e.Source, e.Key, e.Metrics}
	raw, err := json.Marshal(body)
	if err != nil {
		// Only unmarshalable values (NaN metric values) reach here;
		// ingestors filter those before Append.
		panic("hist: unhashable entry: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Store is the on-disk history: one JSON entry per line, append-only.
// A crash mid-append leaves at most one torn final line, which reload
// tolerates (the interrupted append simply never happened); garbage
// anywhere else is corruption and errors.
type Store struct {
	path    string
	entries []Entry
	byID    map[string]int
	// validSize is the byte length of the intact prefix; an append
	// truncates here first so a torn tail is never glued onto the
	// next entry.
	validSize int64
	// TornTail is the number of trailing bytes discarded on open
	// because the final line was unterminated.
	TornTail int
}

// Open loads the store at path, creating an empty one if the file
// does not exist.
func Open(path string) (*Store, error) {
	s := &Store{path: path, byID: make(map[string]int)}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if n := len(raw); n > 0 && raw[n-1] != '\n' {
		if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
			s.TornTail = n - i - 1
			raw = raw[:i+1]
		} else {
			s.TornTail = n
			raw = nil
		}
	}
	s.validSize = int64(len(raw))
	for ln, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("hist: %s:%d: %v", path, ln+1, err)
		}
		if e.Schema != Schema {
			return nil, fmt.Errorf("hist: %s:%d: schema %q, want %q", path, ln+1, e.Schema, Schema)
		}
		if want := contentID(e); e.ID != want {
			return nil, fmt.Errorf("hist: %s:%d: id %.12s does not match content %.12s", path, ln+1, e.ID, want)
		}
		if _, dup := s.byID[e.ID]; dup {
			continue // replayed append; first copy wins
		}
		e.Seq = len(s.entries) + 1
		s.byID[e.ID] = len(s.entries)
		s.entries = append(s.entries, e)
	}
	return s, nil
}

// Path returns the file backing the store.
func (s *Store) Path() string { return s.path }

// Len returns the number of entries.
func (s *Store) Len() int { return len(s.entries) }

// Entries returns the entries in append order. The slice is shared;
// callers must not mutate it.
func (s *Store) Entries() []Entry { return s.entries }

// Append records an entry, filling Schema, ID and Seq. If an entry
// with the same content already exists the store is unchanged and the
// existing entry is returned with added=false.
func (s *Store) Append(e Entry) (Entry, bool, error) {
	e.Schema = Schema
	for name, m := range e.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(e.Metrics, name) // non-finite values never round-trip JSON
		}
	}
	e.ID = contentID(e)
	if i, ok := s.byID[e.ID]; ok {
		return s.entries[i], false, nil
	}
	e.Seq = len(s.entries) + 1
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, false, err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return Entry{}, false, err
	}
	// Drop any torn tail left by a crash mid-append, then write past
	// the intact prefix: the new line never glues onto a fragment.
	if err := f.Truncate(s.validSize); err != nil {
		f.Close()
		return Entry{}, false, err
	}
	n, err := f.WriteAt(append(line, '\n'), s.validSize)
	if err != nil {
		f.Close()
		return Entry{}, false, err
	}
	if err := f.Close(); err != nil {
		return Entry{}, false, err
	}
	s.validSize += int64(n)
	s.byID[e.ID] = len(s.entries)
	s.entries = append(s.entries, e)
	return e, true, nil
}

// Point is one observation of a metric: the value plus the entry it
// came from (for comparability checks and labeling).
type Point struct {
	Seq   int
	Value float64
	Key   Key
	Label string
}

// Series is the history of one metric across the store, in append
// order. Unit, Dir and Kind come from the newest point so a schema
// evolution (a metric reclassified) takes effect immediately.
type Series struct {
	Name   string
	Unit   string
	Dir    obs.Dir
	Kind   string
	Points []Point
}

// SeriesAll extracts every metric's series, sorted by name.
func (s *Store) SeriesAll() []Series {
	byName := make(map[string]*Series)
	for _, e := range s.entries {
		for name, m := range e.Metrics {
			sr := byName[name]
			if sr == nil {
				sr = &Series{Name: name}
				byName[name] = sr
			}
			sr.Unit, sr.Dir, sr.Kind = m.Unit, obs.DirFrom(m.Dir), m.Kind
			sr.Points = append(sr.Points, Point{
				Seq: e.Seq, Value: m.Value, Key: e.Key, Label: e.Label,
			})
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Series, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}
