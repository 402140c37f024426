package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Schema identifies the manifest format this package writes.
const Schema = "wlobs/v1"

// CounterSnap is a counter in a manifest.
type CounterSnap struct {
	Name  string `json:"name"`
	Dir   string `json:"dir"`
	Value uint64 `json:"value"`
}

// GaugeSnap is a gauge in a manifest.
type GaugeSnap struct {
	Name    string  `json:"name"`
	Dir     string  `json:"dir"`
	Samples uint64  `json:"samples"`
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// BucketSnap is one non-empty log2 bucket: Upper is the exclusive
// upper bound (0 encodes the open tail bucket).
type BucketSnap struct {
	Upper float64 `json:"upper"`
	Count uint64  `json:"count"`
}

// HistSnap is a histogram in a manifest.
type HistSnap struct {
	Name    string       `json:"name"`
	Dir     string       `json:"dir"`
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Mean returns sum/count (NaN when empty).
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets: it
// finds the bucket holding the q-th observation and returns that
// bucket's geometric midpoint (0 for the zero bucket, the max for the
// open tail), clamped to [Min, Max]. A single-sample histogram returns
// that sample; an empty one NaN.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	if h.Count == 1 {
		return h.Min
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, bk := range h.Buckets {
		seen += bk.Count
		if seen < rank {
			continue
		}
		switch {
		case bk.Upper == 1:
			return 0
		case bk.Upper == 0: // open tail
			return h.Max
		}
		return min(max(bk.Upper/math.Sqrt2, h.Min), h.Max)
	}
	return h.Max
}

// Manifest is one run's machine-readable record: metadata plus every
// metric snapshot, written as one JSONL line.
type Manifest struct {
	Schema string `json:"schema"`
	RunMeta
	Events        uint64        `json:"events"`
	EventsDropped uint64        `json:"events_dropped"`
	Counters      []CounterSnap `json:"counters"`
	Gauges        []GaugeSnap   `json:"gauges"`
	Histograms    []HistSnap    `json:"histograms"`
}

// Manifest snapshots the recorder's metrics, with every section
// sorted by name for stable diffs.
func (r *Recorder) Manifest() Manifest {
	m := Manifest{Schema: Schema}
	if r == nil {
		return m
	}
	m.RunMeta = r.Meta
	m.Events = r.trace.Pushed()
	m.EventsDropped = r.trace.Dropped()
	for _, n := range r.reg.counterNames() {
		c := r.reg.counters[n]
		m.Counters = append(m.Counters, CounterSnap{Name: c.name, Dir: c.dir.String(), Value: c.n})
	}
	for _, n := range r.reg.gaugeNames() {
		g := r.reg.gauges[n]
		s := GaugeSnap{Name: g.name, Dir: g.dir.String(), Samples: g.n, Last: g.last, Min: g.min, Max: g.max}
		if g.n > 0 {
			s.Mean = g.sum / float64(g.n)
		}
		m.Gauges = append(m.Gauges, s)
	}
	for _, n := range r.reg.histNames() {
		h := r.reg.hists[n]
		s := HistSnap{Name: h.name, Dir: h.dir.String(), Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, cnt := range h.buckets {
			if cnt == 0 {
				continue
			}
			up := BucketUpper(i)
			if math.IsInf(up, 1) {
				up = 0 // JSON has no Inf; 0 encodes the open tail
			}
			s.Buckets = append(s.Buckets, BucketSnap{Upper: up, Count: cnt})
		}
		m.Histograms = append(m.Histograms, s)
	}
	return m
}

// AppendManifest writes m as one JSONL line.
func AppendManifest(w io.Writer, m Manifest) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// ReadManifests parses a JSONL manifest stream, skipping blank lines.
func ReadManifests(r io.Reader) ([]Manifest, error) {
	var out []Manifest
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m Manifest
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("obs: manifest line %d: %w", lineNo, err)
		}
		if m.Schema != Schema {
			return nil, fmt.Errorf("obs: manifest line %d: schema %q, want %q", lineNo, m.Schema, Schema)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
