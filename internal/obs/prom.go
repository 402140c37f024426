package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format rendering of a Registry.
//
// Metric names in the registry may carry an embedded label set in the
// standard exposition spelling — `wlserve_cell_us{outcome="computed"}`
// — so one logical metric can fan out over label values while the
// registry stays a flat name→metric map. The renderer splits the name
// at the first '{', sanitizes the base into a legal Prometheus
// identifier, groups series sharing a base under one # TYPE header,
// and expands histograms into the conventional _bucket (cumulative,
// with an `le` label merged into any embedded labels), _sum and _count
// series. Dotted simulator names (`core.stall_ps`) sanitize to
// underscore form (`core_stall_ps`), so a sim-run registry renders too.

// promName splits a registry metric name into its sanitized base and
// its embedded label block ("" when none, otherwise `k="v",...` without
// the braces).
func promName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels = strings.TrimSuffix(name[i+1:], "}")
		name = name[:i]
	}
	return sanitizeProm(name), labels
}

// sanitizeProm maps an arbitrary metric name onto the Prometheus
// identifier alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeProm(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promVal renders a sample value; Prometheus text wants NaN/Inf
// spelled out.
func promVal(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSeries writes one sample line: name, optional label block, value.
func promSeries(w io.Writer, base, labels string, v float64) error {
	if labels != "" {
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", base, labels, promVal(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", base, promVal(v))
	return err
}

// mergeLabels appends extra (already `k="v"` formatted) to an embedded
// label block.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// promGroup is every registry series sharing one sanitized base name.
type promGroup struct {
	base   string
	kind   string // "counter", "gauge", "histogram"
	series []promEntry
}

type promEntry struct {
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters as counters, gauges as
// gauges (last sample), histograms as cumulative _bucket/_sum/_count
// families with log2 `le` bounds. Series are ordered by base name,
// then label block, so output is deterministic. Nil registries render
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	groups := map[string]*promGroup{}
	add := func(name, kind string, e promEntry) {
		base, labels := promName(name)
		e.labels = labels
		g, ok := groups[base]
		if !ok {
			g = &promGroup{base: base, kind: kind}
			groups[base] = g
		}
		g.series = append(g.series, e)
	}
	for _, n := range r.counterNames() {
		add(n, "counter", promEntry{c: r.counters[n]})
	}
	for _, n := range r.gaugeNames() {
		add(n, "gauge", promEntry{g: r.gauges[n]})
	}
	for _, n := range r.histNames() {
		add(n, "histogram", promEntry{h: r.hists[n]})
	}

	bases := make([]string, 0, len(groups))
	for b := range groups {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		g := groups[b]
		sort.Slice(g.series, func(i, j int) bool { return g.series[i].labels < g.series[j].labels })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", g.base, g.kind); err != nil {
			return err
		}
		for _, e := range g.series {
			var err error
			switch {
			case e.c != nil:
				err = promSeries(w, g.base, e.labels, float64(e.c.Value()))
			case e.g != nil:
				err = promSeries(w, g.base, e.labels, e.g.Last())
			case e.h != nil:
				err = writePromHist(w, g.base, e.labels, e.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist expands one log2 histogram into cumulative buckets.
// Only buckets up to the one holding the max value are emitted (plus
// the mandatory +Inf), so a 64-bucket histogram does not bloat the
// scrape with empty tail buckets.
func writePromHist(w io.Writer, base, labels string, h *Histogram) error {
	var cum uint64
	if h.count > 0 {
		last := bucketOf(h.max)
		for i := 0; i <= last && i < histBuckets; i++ {
			cum += h.buckets[i]
			up := BucketUpper(i)
			if math.IsInf(up, 1) {
				break // the +Inf line below covers the open tail
			}
			le := mergeLabels(labels, fmt.Sprintf("le=%q", promVal(up)))
			if err := promSeries(w, base+"_bucket", le, float64(cum)); err != nil {
				return err
			}
		}
	}
	if err := promSeries(w, base+"_bucket", mergeLabels(labels, `le="+Inf"`), float64(h.count)); err != nil {
		return err
	}
	if err := promSeries(w, base+"_sum", labels, h.sum); err != nil {
		return err
	}
	return promSeries(w, base+"_count", labels, float64(h.count))
}

// PromSample is one parsed sample line of a Prometheus text scrape.
type PromSample struct {
	Name   string            // metric name (base, without the label block)
	Labels map[string]string // nil when the line carries no labels
	Value  float64
}

// Series returns the sample's series key: the name, then its labels
// (if any) in exposition spelling sorted by label name —
// `wlserve_cells_total{outcome="computed"}`. A registry metric whose
// embedded labels are sorted the same way renders to a sample whose
// key is its registry name, so a parsed scrape can be indexed by the
// names that produced it.
func (s PromSample) Series() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	return s.Name + "{" + promLabelBlock(s.Labels, "") + "}"
}

// Typed scrape-validation errors. A scraper that races a deploy can
// meet half-written or doubled expositions; callers branch on these
// with errors.Is to tell a corrupt scrape from an I/O failure.
var (
	// ErrPromTruncated marks an exposition cut off mid-stream: the text
	// format requires a final line feed, so a missing one means the
	// writer died (or the connection closed) before finishing.
	ErrPromTruncated = errors.New("truncated prometheus exposition")
	// ErrPromDuplicateFamily marks a metric family declared twice — the
	// signature of two expositions concatenated.
	ErrPromDuplicateFamily = errors.New("duplicate prometheus metric family")
	// ErrPromBucketOrder marks histogram buckets whose `le` bounds are
	// not strictly increasing.
	ErrPromBucketOrder = errors.New("prometheus histogram buckets out of order")
	// ErrPromMissingInf marks a histogram family that never emitted its
	// mandatory +Inf bucket.
	ErrPromMissingInf = errors.New("prometheus histogram missing +Inf bucket")
)

// promHistState tracks one histogram series' bucket progression (keyed
// by base name + non-le label signature).
type promHistState struct {
	lastLE float64
	sawInf bool
	line   int
}

// ParsePrometheus is a validating parser for the Prometheus text
// exposition format subset this package writes: # comment lines,
// `name value` and `name{k="v",...} value` samples. It returns every
// sample in input order, erroring on any malformed line — the load
// harness and tests use it to prove /metrics scrapes are well-formed.
// Beyond line syntax it enforces the format's semantic rules: the
// exposition ends in a line feed (ErrPromTruncated), a # TYPE family
// is declared at most once (ErrPromDuplicateFamily), histogram bucket
// bounds increase strictly (ErrPromBucketOrder) and every histogram
// closes with its +Inf bucket (ErrPromMissingInf).
func ParsePrometheus(r io.Reader) ([]PromSample, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		return nil, fmt.Errorf("obs: %w: no final line feed", ErrPromTruncated)
	}

	var out []PromSample
	families := map[string]string{} // base name -> declared type
	hists := map[string]*promHistState{}
	lineNo := 0
	for _, rawLine := range strings.Split(string(raw), "\n") {
		lineNo++
		line := strings.TrimSpace(rawLine)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					base := fields[0]
					if _, dup := families[base]; dup {
						return nil, fmt.Errorf("obs: prometheus line %d: %w: %s", lineNo, ErrPromDuplicateFamily, base)
					}
					kind := ""
					if len(fields) >= 2 {
						kind = fields[1]
					}
					families[base] = kind
				}
			}
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prometheus line %d: %w", lineNo, err)
		}
		if base, ok := strings.CutSuffix(s.Name, "_bucket"); ok && families[base] == "histogram" {
			if err := checkPromBucket(hists, base, s, lineNo); err != nil {
				return nil, err
			}
		}
		out = append(out, s)
	}
	for _, st := range sortedHistStates(hists) {
		if !st.state.sawInf {
			return nil, fmt.Errorf("obs: prometheus line %d: %w: %s", st.state.line, ErrPromMissingInf, st.key)
		}
	}
	return out, nil
}

// checkPromBucket folds one _bucket sample of a declared histogram
// family into its series' ordering state.
func checkPromBucket(hists map[string]*promHistState, base string, s PromSample, lineNo int) error {
	leStr, ok := s.Labels["le"]
	if !ok {
		return fmt.Errorf("obs: prometheus line %d: %s_bucket sample without le label", lineNo, base)
	}
	var le float64
	if leStr == "+Inf" {
		le = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			return fmt.Errorf("obs: prometheus line %d: bad le bound %q: %v", lineNo, leStr, err)
		}
		le = v
	}
	// Every bucket of one histogram series shares the key without `le`.
	key := base + "{" + promLabelBlock(s.Labels, "le") + "}"
	st, ok := hists[key]
	if !ok {
		st = &promHistState{lastLE: math.Inf(-1)}
		hists[key] = st
	}
	st.line = lineNo
	if st.sawInf || le <= st.lastLE {
		return fmt.Errorf("obs: prometheus line %d: %w: %s le=%s after le=%s",
			lineNo, ErrPromBucketOrder, key, leStr, promVal(st.lastLE))
	}
	st.lastLE = le
	if math.IsInf(le, 1) {
		st.sawInf = true
	}
	return nil
}

// promLabelBlock renders a label set in exposition spelling, sorted by
// name, leaving out the label named skip.
func promLabelBlock(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return strings.Join(parts, ",")
}

// sortedHistStates orders the bucket states for deterministic error
// selection when several histograms are incomplete.
func sortedHistStates(hists map[string]*promHistState) []struct {
	key   string
	state *promHistState
} {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		key   string
		state *promHistState
	}, len(keys))
	for i, k := range keys {
		out[i] = struct {
			key   string
			state *promHistState
		}{k, hists[k]}
	}
	return out
}

func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	// Name runs to the first '{' or space.
	end := strings.IndexAny(rest, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.Name = rest[:end]
	if !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := strings.IndexByte(rest, '}')
		if close < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err := parsePromLabels(rest[1:close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp after the value is legal in the format; this writer
	// never emits one, so a second field is rejected as malformed.
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(block string) (map[string]string, error) {
	labels := map[string]string{}
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad label pair in %q", block)
		}
		key := strings.TrimSpace(rest[:eq])
		if !validPromName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", block)
		}
		val, n, err := unquotePromValue(rest)
		if err != nil {
			return nil, err
		}
		labels[key] = val
		rest = rest[n:]
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		} else if rest != "" {
			return nil, fmt.Errorf("junk after label value in %q", block)
		}
	}
	return labels, nil
}

// unquotePromValue consumes a leading quoted string (with \" \\ \n
// escapes) and returns the value plus bytes consumed.
func unquotePromValue(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value in %q", s)
}

func validPromName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(name) > 0
}
