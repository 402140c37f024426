// Format sniffing and ingestion: each supported document becomes one
// history entry (one per cell for wlobs/v1 and wlattr/v1 streams) with
// a flat, namespaced metric map. The metric kind and direction tables
// here are the drift policy: what gates, what is informational, and
// which way is "better".
package hist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wlcache/internal/hostinfo"
	"wlcache/internal/obs"
)

// keyFrom builds a comparability key from collected host info, mapping
// empty fields to Unknown.
func keyFrom(i hostinfo.Info) Key {
	k := Key{Engine: i.Engine, GitCommit: i.GitCommit, Host: i.Fingerprint()}
	if k.Engine == "" {
		k.Engine = Unknown
	}
	if k.Host == "" {
		k.Host = Unknown
	}
	return k
}

// SelfKey is the comparability key of the running process: used when
// the ingested document carries no host block (a live scrape, an obs
// manifest) and the caller asserts the numbers were produced here.
func SelfKey() Key { return keyFrom(hostinfo.Collect()) }

// Ingest sniffs the document format and converts it to history
// entries ready for Store.Append. name is recorded as the source
// (typically the file path or URL).
func Ingest(raw []byte, name, label string) ([]Entry, error) {
	format, err := Sniff(raw)
	if err != nil {
		return nil, fmt.Errorf("hist: %s: %w", name, err)
	}
	var entries []Entry
	switch format {
	case "wlperf/v1":
		entries, err = ingestPerf(raw, name)
	case "wlload/v1":
		entries, err = ingestLoad(raw, name)
	case obs.Schema: // wlobs/v1
		entries, err = ingestManifest(raw, name)
	case obs.AttrFormat: // wlattr/v1
		entries, err = ingestAttr(raw, name)
	case "prometheus":
		entries, err = ingestProm(raw, name)
	default:
		return nil, fmt.Errorf("hist: %s: unsupported format %q", name, format)
	}
	if err != nil {
		return nil, fmt.Errorf("hist: %s: %w", name, err)
	}
	for i := range entries {
		entries[i].Label = label
	}
	return entries, nil
}

// Sniff identifies a document: one of the repo's JSON report schemas,
// a wlobs/v1 or wlattr/v1 JSONL stream, or a Prometheus text
// exposition.
func Sniff(raw []byte) (string, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return "", fmt.Errorf("empty document")
	}
	if trimmed[0] == '{' {
		// Whole-document schema, or the first line of a JSONL stream.
		var head struct {
			Schema string `json:"schema"`
			Format string `json:"format"`
		}
		line := trimmed
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			if err := json.Unmarshal(line[:i], &head); err == nil {
				if head.Schema != "" || head.Format != "" {
					line = line[:i]
				}
			}
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return "", fmt.Errorf("sniff: %v", err)
		}
		switch {
		case head.Schema != "":
			return head.Schema, nil
		case head.Format != "":
			return head.Format, nil
		}
		return "", fmt.Errorf("sniff: JSON document carries no schema/format field")
	}
	if trimmed[0] == '#' || bytes.Contains(trimmed, []byte("# TYPE")) {
		return "prometheus", nil
	}
	// A bare exposition with no comment lines still parses as
	// name/value pairs; accept it if the first token looks like one.
	if f := bytes.Fields(bytes.SplitN(trimmed, []byte("\n"), 2)[0]); len(f) == 2 {
		return "prometheus", nil
	}
	return "", fmt.Errorf("sniff: unrecognized document")
}

// --- wlperf/v1 ------------------------------------------------------

// perfDoc mirrors the report bench/ writes with -json.
type perfDoc struct {
	Host      hostinfo.Info `json:"host"`
	Engine    string        `json:"engine"`
	Workload  string        `json:"workload"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// perfGated are the benchmark's end-to-end metrics, with the kinds and
// directions BENCHMARK.json declares for them. Every other metric of
// the report (per-layer costs, host.slowdown, exact counts per pass)
// trends as info.
var perfGated = map[string]Metric{
	"setup_s":        {Dir: "lower", Kind: KindPerf},
	"sim_mips":       {Dir: "higher", Kind: KindPerf},
	"max_rss_mb":     {Dir: "lower", Kind: KindPerf},
	"request_ms_p50": {Dir: "lower", Kind: KindLatency},
}

func ingestPerf(raw []byte, name string) ([]Entry, error) {
	var doc perfDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Workload == "" {
		return nil, fmt.Errorf("wlperf/v1 report names no workload")
	}
	key := keyFrom(doc.Host)
	if doc.Engine != "" {
		key.Engine = doc.Engine
	}
	// The workload name separates the tiers (fig-exact, fig-fast).
	p := doc.Workload + "."
	metrics := map[string]Metric{
		// Every cell is checked against the benchmark's expected
		// outcomes, so a failure is drift on any host.
		p + "failed":    {Value: float64(doc.Failed), Dir: "lower", Kind: KindExact},
		p + "attempted": {Value: float64(doc.Attempted), Kind: KindInfo},
	}
	for _, m := range doc.Metrics {
		g, ok := perfGated[m.Name]
		if !ok {
			g.Kind = KindInfo
		}
		g.Value, g.Unit = m.Value, m.Unit
		metrics[p+m.Name] = g
	}
	return []Entry{{
		Source:  Source{Format: "wlperf/v1", Name: name},
		Key:     key,
		Metrics: metrics,
	}}, nil
}

// --- wlload/v1 ------------------------------------------------------

// loadDoc mirrors load.Report.
type loadDoc struct {
	Schema string         `json:"schema"`
	Host   *hostinfo.Info `json:"host"`

	Submitted     int     `json:"submitted"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	HTTP5xx       int     `json:"http_5xx"`
	Failed        int     `json:"failed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	Latency       struct {
		P50MS  float64 `json:"p50_ms"`
		P95MS  float64 `json:"p95_ms"`
		P99MS  float64 `json:"p99_ms"`
		MeanMS float64 `json:"mean_ms"`
		MaxMS  float64 `json:"max_ms"`
	} `json:"latency"`
	DedupRatio float64 `json:"dedup_ratio"`
	ShedRate   float64 `json:"shed_rate"`
}

func ingestLoad(raw []byte, name string) ([]Entry, error) {
	var doc loadDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	key := SelfKey()
	if doc.Host != nil {
		key = keyFrom(*doc.Host)
	} else {
		key.Host = Unknown
		key.GitCommit = ""
	}
	metrics := map[string]Metric{
		"load.throughput_rps":  {Value: doc.ThroughputRPS, Unit: "req/s", Dir: "higher", Kind: KindPerf},
		"load.cells_per_sec":   {Value: doc.CellsPerSec, Unit: "cells/s", Dir: "higher", Kind: KindPerf},
		"load.latency.p50_ms":  {Value: doc.Latency.P50MS, Unit: "ms", Dir: "lower", Kind: KindLatency},
		"load.latency.p95_ms":  {Value: doc.Latency.P95MS, Unit: "ms", Dir: "lower", Kind: KindLatency},
		"load.latency.p99_ms":  {Value: doc.Latency.P99MS, Unit: "ms", Dir: "lower", Kind: KindLatency},
		"load.latency.mean_ms": {Value: doc.Latency.MeanMS, Unit: "ms", Dir: "lower", Kind: KindLatency},
		"load.latency.max_ms":  {Value: doc.Latency.MaxMS, Unit: "ms", Dir: "lower", Kind: KindLatency},
		// Correctness counters: any 5xx or failed cell is drift even
		// across hosts.
		"load.http_5xx": {Value: float64(doc.HTTP5xx), Dir: "lower", Kind: KindExact},
		"load.failed":   {Value: float64(doc.Failed), Dir: "lower", Kind: KindExact},
		// Shape of the run: informational (depends on flags and load).
		"load.submitted":   {Value: float64(doc.Submitted), Kind: KindInfo},
		"load.completed":   {Value: float64(doc.Completed), Kind: KindInfo},
		"load.shed":        {Value: float64(doc.Shed), Kind: KindInfo},
		"load.dedup_ratio": {Value: doc.DedupRatio, Kind: KindInfo},
		"load.shed_rate":   {Value: doc.ShedRate, Kind: KindInfo},
	}
	return []Entry{{
		Source:  Source{Format: "wlload/v1", Name: name},
		Key:     key,
		Metrics: metrics,
	}}, nil
}

// --- wlobs/v1 (manifest JSONL) --------------------------------------

// ingestManifest records every manifest metric as directed exact: a
// manifest holds simulated outcomes only, deterministic within one
// engine version, so any move in the bad direction is drift, and so is
// any move at all of a metric with direction none (the checksum).
func ingestManifest(raw []byte, name string) ([]Entry, error) {
	ms, err := obs.ReadManifests(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	key := SelfKey()
	var entries []Entry
	for _, m := range ms {
		p := fmt.Sprintf("obs.%s.%s.%s.", m.Design, m.Workload, m.Trace)
		metrics := make(map[string]Metric)
		for _, c := range m.Counters {
			metrics[p+c.Name] = Metric{Value: float64(c.Value), Dir: c.Dir, Kind: KindExact}
		}
		for _, g := range m.Gauges {
			metrics[p+g.Name+".last"] = Metric{Value: g.Last, Dir: g.Dir, Kind: KindExact}
			metrics[p+g.Name+".max"] = Metric{Value: g.Max, Dir: g.Dir, Kind: KindExact}
		}
		for _, h := range m.Histograms {
			if h.Count == 0 {
				continue
			}
			metrics[p+h.Name+".mean"] = Metric{Value: h.Mean(), Dir: h.Dir, Kind: KindExact}
			metrics[p+h.Name+".max"] = Metric{Value: h.Max, Dir: h.Dir, Kind: KindExact}
		}
		entries = append(entries, Entry{
			Source:  Source{Format: obs.Schema, Name: name + "#" + m.Design + "/" + m.Workload + "/" + m.Trace},
			Key:     key,
			Metrics: metrics,
		})
	}
	return entries, nil
}

// --- wlattr/v1 ------------------------------------------------------

func ingestAttr(raw []byte, name string) ([]Entry, error) {
	recs, err := obs.ReadAttrs(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	key := SelfKey()
	var entries []Entry
	for _, r := range recs {
		p := fmt.Sprintf("attr.%s.%s.%s.", r.Design, r.Workload, r.Trace)
		metrics := map[string]Metric{
			p + "total_ps":       {Value: float64(r.TotalPS), Unit: "ps", Dir: "lower", Kind: KindExact},
			p + "coverage":       {Value: r.Coverage, Dir: "higher", Kind: KindPerf},
			p + "unknown_ps":     {Value: float64(r.UnknownPS), Unit: "ps", Dir: "lower", Kind: KindInfo},
			p + "events_dropped": {Value: float64(r.EventsDropped), Dir: "lower", Kind: KindExact},
		}
		for cat, ps := range r.Categories {
			kind := KindPerf
			dir := "lower"
			if cat == "compute" {
				// Compute time is the workload itself, not overhead.
				kind, dir = KindInfo, ""
			}
			metrics[p+"cat."+cat+"_ps"] = Metric{Value: float64(ps), Unit: "ps", Dir: dir, Kind: kind}
		}
		entries = append(entries, Entry{
			Source:  Source{Format: obs.AttrFormat, Name: name + "#" + r.Design + "/" + r.Workload + "/" + r.Trace},
			Key:     key,
			Metrics: metrics,
		})
	}
	return entries, nil
}

// --- Prometheus text ------------------------------------------------

// ingestProm flattens a /metrics scrape into info metrics: a live
// gauge read is a point-in-time snapshot of a moving system, useful
// for trends and dashboards but never a gate. Histogram buckets are
// skipped (the _sum/_count series carry the trend).
func ingestProm(raw []byte, name string) ([]Entry, error) {
	samples, err := obs.ParsePrometheus(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	metrics := make(map[string]Metric)
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		n := "prom." + s.Name
		if len(s.Labels) > 0 {
			n += "{" + promLabelSignature(s.Labels) + "}"
		}
		metrics[n] = Metric{Value: s.Value, Kind: KindInfo}
	}
	return []Entry{{
		Source:  Source{Format: "prometheus", Name: name},
		Key:     SelfKey(),
		Metrics: metrics,
	}}, nil
}

// promLabelSignature renders a label set deterministically.
func promLabelSignature(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}
