package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"wlcache/internal/obs"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// The NDJSON stream event types.
const (
	EventAccepted = "accepted" // first line: sweep id + cell count
	EventCell     = "cell"     // one per cell, as its outcome lands
	EventDone     = "done"     // last line: sweep metrics
)

// Event is one NDJSON line of a sweep stream. Type selects which
// fields are meaningful.
type Event struct {
	Type  string `json:"type"`
	Sweep string `json:"sweep,omitempty"`
	// Request is the request ID of the submission that produced this
	// stream (an inbound X-Request-Id, or server-assigned), so events
	// correlate with the server's logs.
	Request string `json:"request,omitempty"`
	Cells   int    `json:"cells,omitempty"`

	Index    int         `json:"index,omitempty"`
	ID       string      `json:"id,omitempty"`
	Kind     string      `json:"kind,omitempty"`
	Workload string      `json:"workload,omitempty"`
	Trace    string      `json:"trace,omitempty"`
	Source   string      `json:"source,omitempty"`
	Error    string      `json:"error,omitempty"`
	Result   *sim.Result `json:"result,omitempty"`

	Metrics *SweepMetrics `json:"metrics,omitempty"`
}

// SweepMetrics is the done event's accounting; the resume proof reads
// it (FromJournal + FromShared must cover every previously durable
// cell, Computed exactly the rest).
type SweepMetrics struct {
	Cells       int `json:"cells"`
	FromJournal int `json:"from_journal"`
	FromShared  int `json:"from_shared"`
	Deduped     int `json:"deduped"`
	Computed    int `json:"computed"`
	Failed      int `json:"failed"`
	Skipped     int `json:"skipped"`
	Panics      int `json:"panics"`

	// The journal_* fields report the one scan of the sweep's journal
	// this server made, when it opened it: at startup, or on the first
	// sweep of a spec that had none (all zero). Every sweep of the spec
	// on this server reports the same scan.
	JournalRecords   int `json:"journal_records"`
	JournalDropped   int `json:"journal_dropped_records"`
	JournalTornBytes int `json:"journal_torn_tail_bytes"`
}

func sweepMetricsFrom(m runner.Metrics) *SweepMetrics {
	return &SweepMetrics{
		Cells:            m.Cells,
		FromJournal:      m.FromJournal,
		FromShared:       m.FromShared,
		Deduped:          m.Deduped,
		Computed:         m.Computed,
		Failed:           m.Failed + m.OptionalFailed,
		Skipped:          m.Skipped,
		Panics:           m.Panics,
		JournalRecords:   m.Journal.Records,
		JournalDropped:   m.Journal.Dropped,
		JournalTornBytes: m.Journal.TornTailBytes,
	}
}

// Client is a minimal wlserve API client; the chaos gate, the
// benchmark and tests drive the service through it.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// StartProcess launches the wlserve binary bin on a free loopback port
// with the given data directory, and returns once the server prints its
// listen address, with the server root for a Client. killAfter > 0
// arms the server's chaos seam (-kill-after): it SIGKILLs itself after
// that many durable journal appends. The server's stdout stays drained
// for its lifetime; stderr is discarded. The caller owns the process:
// kill or signal it, then Wait.
func StartProcess(bin, dataDir string, killAfter int) (*exec.Cmd, string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-data", dataDir}
	if killAfter > 0 {
		args = append(args, "-kill-after", strconv.Itoa(killAfter))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = io.Discard
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "listening on "); ok {
			// Keep draining stdout so the server never blocks on a full
			// pipe.
			go io.Copy(io.Discard, pipe)
			return cmd, "http://" + a, nil
		}
	}
	err = cmd.Wait()
	return nil, "", fmt.Errorf("server exited before listening: %v", err)
}

// OverloadedError is a 429 shed: retry after the hinted delay.
type OverloadedError struct {
	RetryAfter time.Duration
	Body       string
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("server overloaded, retry after %s: %s", e.RetryAfter, e.Body)
}

// Submit POSTs a sweep spec and returns the live event stream, having
// already consumed the accepted event (available as Stream.Accepted).
// The server assigns the request ID.
func (c *Client) Submit(ctx context.Context, spec Spec) (*Stream, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			return nil, &OverloadedError{RetryAfter: time.Duration(secs) * time.Second, Body: string(bytes.TrimSpace(msg))}
		}
		return nil, fmt.Errorf("submit: %d %s: %s", resp.StatusCode, http.StatusText(resp.StatusCode), bytes.TrimSpace(msg))
	}
	st := &Stream{resp: resp, br: bufio.NewReader(resp.Body)}
	ev, err := st.Next()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("submit: reading accepted event: %w", err)
	}
	if ev.Type != EventAccepted {
		st.Close()
		return nil, fmt.Errorf("submit: first event is %q, want %q", ev.Type, EventAccepted)
	}
	st.Accepted = ev
	return st, nil
}

// Stream is a live sweep's NDJSON event sequence: one JSON object per
// line, each ended by a newline, exactly as the server's encoder writes
// them. The client relies on that framing: it reads a line, then
// decodes it.
type Stream struct {
	// Accepted is the already-consumed first event.
	Accepted Event
	resp     *http.Response
	br       *bufio.Reader
	line     []byte // the last line read, reused
}

// Next reads and decodes the next line. It returns io.EOF at a clean
// end, after the done event, and a non-EOF error if the stream breaks
// mid-line: io.ErrUnexpectedEOF, or the transport's error, when the
// server died mid-stream — the crash the journal exists for.
func (st *Stream) Next() (Event, error) {
	st.line = st.line[:0]
	for {
		frag, err := st.br.ReadSlice('\n')
		st.line = append(st.line, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF && len(st.line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Event{}, err
		}
		break
	}
	var ev Event
	if err := decodeEvent(st.line[:len(st.line)-1], &ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// decodeEvent decodes one stream line: through readEvent when it is a
// cell event in the canonical form the server's encoder writes, and
// through encoding/json otherwise — the accepted and done events, and a
// cell whose error string needed escapes.
func decodeEvent(line []byte, ev *Event) error {
	if readEvent(line, ev) {
		return nil
	}
	*ev = Event{}
	return json.Unmarshal(line, ev)
}

// readEvent reads a cell event line in the exact bytes encoding/json
// writes for it, in one pass: each key optional, in Event field order.
// It reports false, leaving ev partly filled, at the first byte it does
// not expect — a Metrics field included, which only done events carry.
func readEvent(line []byte, ev *Event) bool {
	r := sim.NewJSONReader(line)
	r.Lit(`{"type":"cell"`)
	ev.Type = EventCell
	if r.Key(`,"sweep":`) {
		ev.Sweep = r.Str("")
	}
	if r.Key(`,"request":`) {
		ev.Request = r.Str("")
	}
	if r.Key(`,"cells":`) {
		ev.Cells = int(r.Int("", strconv.IntSize))
	}
	if r.Key(`,"index":`) {
		ev.Index = int(r.Int("", strconv.IntSize))
	}
	if r.Key(`,"id":`) {
		ev.ID = r.Str("")
	}
	if r.Key(`,"kind":`) {
		ev.Kind = r.Str("")
	}
	if r.Key(`,"workload":`) {
		ev.Workload = r.Str("")
	}
	if r.Key(`,"trace":`) {
		ev.Trace = r.Str("")
	}
	if r.Key(`,"source":`) {
		ev.Source = r.Str("")
	}
	if r.Key(`,"error":`) {
		ev.Error = r.Str("")
	}
	if r.Key(`,"result":`) {
		ev.Result = new(sim.Result)
		r.Result("", ev.Result)
	}
	r.Lit(`}`)
	return r.End()
}

// appendEvent appends ev as one stream line, newline included, in the
// exact bytes json.Encoder writes for it: each field in Event order,
// omitted when empty. It reports false for a done event (Metrics stays
// on encoding/json) and wherever the writer cannot promise those bytes
// — an error string needing escapes, a non-finite float — and the
// caller then encodes ev with encoding/json.
func appendEvent(dst []byte, ev *Event) ([]byte, bool) {
	if ev.Metrics != nil {
		return dst, false
	}
	w := sim.NewJSONWriter(dst)
	w.Str(`{"type":`, ev.Type)
	if ev.Sweep != "" {
		w.Str(`,"sweep":`, ev.Sweep)
	}
	if ev.Request != "" {
		w.Str(`,"request":`, ev.Request)
	}
	if ev.Cells != 0 {
		w.Int(`,"cells":`, int64(ev.Cells))
	}
	if ev.Index != 0 {
		w.Int(`,"index":`, int64(ev.Index))
	}
	if ev.ID != "" {
		w.Str(`,"id":`, ev.ID)
	}
	if ev.Kind != "" {
		w.Str(`,"kind":`, ev.Kind)
	}
	if ev.Workload != "" {
		w.Str(`,"workload":`, ev.Workload)
	}
	if ev.Trace != "" {
		w.Str(`,"trace":`, ev.Trace)
	}
	if ev.Source != "" {
		w.Str(`,"source":`, ev.Source)
	}
	if ev.Error != "" {
		w.Str(`,"error":`, ev.Error)
	}
	if ev.Result != nil {
		w.Result(`,"result":`, ev.Result)
	}
	w.Lit("}\n")
	return w.Bytes()
}

// Drain consumes the rest of the stream, returning every cell event
// plus the done event (nil if the stream died before it).
func (st *Stream) Drain() (cells []Event, done *Event, err error) {
	for {
		ev, nerr := st.Next()
		if nerr != nil {
			if nerr == io.EOF {
				nerr = nil
			}
			return cells, done, nerr
		}
		switch ev.Type {
		case EventCell:
			cells = append(cells, ev)
		case EventDone:
			d := ev
			done = &d
		}
	}
}

// Close releases the stream's connection.
func (st *Stream) Close() error {
	return st.resp.Body.Close()
}

// Ready probes /readyz once.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// WaitReady polls /readyz until it answers 200 or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		if err := c.Ready(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became ready: %w", context.Cause(ctx))
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Metrics is one /metrics scrape: every sample's value keyed by its
// series, the name plus its labels sorted by label name
// (obs.PromSample.Series) — `wlserve_store_loaded`,
// `wlserve_cells_total{outcome="computed"}`. DESIGN.md §14.2 lists the
// families.
type Metrics map[string]float64

// metricsOf indexes the samples of a validated scrape by series.
func metricsOf(samples []obs.PromSample, err error) (Metrics, error) {
	if err != nil {
		return nil, err
	}
	m := make(Metrics, len(samples))
	for _, s := range samples {
		m[s.Series()] = s.Value
	}
	return m, nil
}

// Scrape fetches GET /metrics and returns every sample, erroring unless
// the exposition is well-formed Prometheus text.
func (c *Client) Scrape(ctx context.Context) ([]obs.PromSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	return obs.ParsePrometheus(resp.Body)
}

// Metrics scrapes /metrics and indexes the samples by series.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	return metricsOf(c.Scrape(ctx))
}
