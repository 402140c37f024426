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
	// correlate with the server's logs and the sweep's trace export.
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
	Retries     int `json:"retries"`
	Panics      int `json:"panics"`

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
		Retries:          m.Retries,
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
	st := &Stream{resp: resp, dec: json.NewDecoder(bufio.NewReader(resp.Body))}
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

// Stream is a live sweep's NDJSON event sequence.
type Stream struct {
	// Accepted is the already-consumed first event.
	Accepted Event
	resp     *http.Response
	dec      *json.Decoder
}

// Next returns the next event; io.EOF after the done event (or an
// unexpected transport error if the server died mid-stream — the crash
// the journal exists for).
func (st *Stream) Next() (Event, error) {
	var ev Event
	if err := st.dec.Decode(&ev); err != nil {
		return Event{}, err
	}
	return ev, nil
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

// Progress fetches GET /v1/sweeps/{id}.
func (c *Client) Progress(ctx context.Context, sweepID string) (ProgressSnapshot, error) {
	var snap ProgressSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/sweeps/"+sweepID, nil)
	if err != nil {
		return snap, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("progress: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
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
