// Format sniffing and ingestion: each supported document — a bench/
// wlperf/v1 report or a wlobs/v1 manifest stream — becomes one history
// entry (one per cell for the stream) with a flat, namespaced metric
// map. The metric kind and
// direction tables here are the drift policy: what gates, what is
// informational, and which way is "better".
package hist

import (
	"bytes"
	"encoding/json"
	"fmt"

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
// the ingested document carries no host block (a wlobs/v1 manifest)
// and the caller asserts it was produced here.
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
	case obs.Schema: // wlobs/v1
		entries, err = ingestManifest(raw, name)
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

// Sniff identifies a document by its JSON schema: a whole-document
// report, or the first line of a JSONL stream such as wlobs/v1.
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
	"request_ms_p50": {Dir: "lower", Kind: KindPerf},
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

// --- wlobs/v1 (manifest JSONL) --------------------------------------

// ingestManifest records every manifest metric as directed exact: a
// manifest holds simulated outcomes only, deterministic within one
// engine version, so any move in the bad direction is drift, and so is
// any move at all of a metric with direction none (the checksum, the
// cycle ledger's attr.compute_ps).
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
