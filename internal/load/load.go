// Package load is the wlserve load harness: N concurrent clients
// submit overlapping sweep specs at a target rate, the server's
// /metrics endpoint is scraped (and validated as Prometheus text)
// between phases, and the outcome — throughput, submit→done latency
// percentiles, dedup ratio, shed rate — is reported as a wlload/v1
// JSON document. The overlapping specs are the point: concurrent
// clients requesting intersecting matrices exercise the single-flight
// store, so the dedup ratio measures the service's core claim (a cell
// is computed once per server lifetime, no matter how many sweeps
// want it).
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/hostinfo"
	"wlcache/internal/obs"
	"wlcache/internal/serve"
	"wlcache/internal/stats"
)

// Schema identifies the report format.
const Schema = "wlload/v1"

// Config tunes a load run.
type Config struct {
	// Base is the target server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Clients is the number of concurrent submitters (0 = 4).
	Clients int
	// Requests is the number of submissions per phase (0 = 2×Clients).
	Requests int
	// Phases repeats the request batch, scraping /metrics between
	// batches (0 = 1).
	Phases int
	// Rate caps aggregate submissions per second (0 = unpaced).
	Rate float64
	// Specs are submitted round-robin (nil = DefaultSpecs: the full
	// golden matrix alternating with its figure-kinds subset, so
	// concurrent submissions overlap and the dedup path is exercised).
	Specs []serve.Spec
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c Config) normalize() Config {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Requests <= 0 {
		c.Requests = 2 * c.Clients
	}
	if c.Phases <= 0 {
		c.Phases = 1
	}
	if len(c.Specs) == 0 {
		c.Specs = DefaultSpecs()
	}
	return c
}

// DefaultSpecs returns the standard overlapping pair: the full golden
// matrix (78 cells) and its figure-kinds subset (24 cells, all
// contained in the first), alternated across submissions.
func DefaultSpecs() []serve.Spec {
	var figs []string
	for _, k := range expt.FigureKinds() {
		figs = append(figs, string(k))
	}
	return []serve.Spec{{}, {Designs: figs}}
}

// Latency is the submit→done distribution over completed sweeps, in
// milliseconds. Percentiles are exact order statistics, not histogram
// estimates.
type Latency struct {
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Cells aggregates the done-event accounting over completed sweeps.
type Cells struct {
	Total       int `json:"total"`
	Computed    int `json:"computed"`
	FromJournal int `json:"from_journal"`
	FromShared  int `json:"from_shared"`
	Deduped     int `json:"deduped"`
	Failed      int `json:"failed"`
	Skipped     int `json:"skipped"`
	Retries     int `json:"retries"`
}

// Scrape is one /metrics observation, validated as Prometheus text
// before it is kept. PromSamples counts its samples; Metrics holds
// them keyed by series.
type Scrape struct {
	// Phase 0 is the pre-run scrape; phase n the scrape after batch n.
	Phase       int           `json:"phase"`
	PromSamples int           `json:"prom_samples"`
	Metrics     serve.Metrics `json:"metrics"`
}

// Report is the wlload/v1 document. Host self-describes the machine
// that generated the load (the client side — latencies are measured
// there) so run-history entries key comparably; old reports without it
// still ingest as host "unknown".
type Report struct {
	Schema           string         `json:"schema"`
	Host             *hostinfo.Info `json:"host,omitempty"`
	Target           string         `json:"target"`
	Clients          int            `json:"clients"`
	Phases           int            `json:"phases"`
	RequestsPerPhase int            `json:"requests_per_phase"`
	RatePerSec       float64        `json:"rate_per_sec,omitempty"`
	DurMS            int64          `json:"dur_ms"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	// Shed counts 429 load-sheds — expected behavior under overload,
	// not failures.
	Shed int `json:"shed"`
	// HTTP5xx counts 5xx submissions; the CI load gate fails on any.
	HTTP5xx int `json:"http_5xx"`
	// Failed counts submissions that neither completed nor shed:
	// transport errors, 4xx/5xx, streams that died before done.
	Failed int `json:"failed"`

	ThroughputRPS float64 `json:"throughput_rps"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	Latency       Latency `json:"latency"`

	Cells Cells `json:"cells"`
	// DedupRatio is the fraction of requested cells served without
	// fresh computation (journal, shared store, or in-run dedup) — the
	// overlap dividend.
	DedupRatio float64 `json:"dedup_ratio"`
	// ShedRate is Shed / Submitted.
	ShedRate float64 `json:"shed_rate"`

	// Sweeps lists the distinct sweep IDs observed, for fetching
	// progress or trace exports afterwards.
	Sweeps  []string `json:"sweeps"`
	Scrapes []Scrape `json:"scrapes"`
	Errors  []string `json:"errors,omitempty"`
}

// maxReportErrors bounds the error sample carried in the report.
const maxReportErrors = 8

// collector accumulates per-request outcomes under one lock.
type collector struct {
	mu        sync.Mutex
	rep       *Report
	latencies []float64
	sweeps    map[string]bool
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Failed++
	c.noteErr(err)
}

func (c *collector) noteErr(err error) {
	if len(c.rep.Errors) < maxReportErrors {
		c.rep.Errors = append(c.rep.Errors, err.Error())
	}
}

// Run drives one load run against a live server. Infrastructure
// problems (unreachable server, malformed /metrics) return an error;
// sheds and per-sweep failures are data, recorded in the report.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.normalize()
	host := hostinfo.Collect()
	rep := Report{
		Schema: Schema, Host: &host, Target: cfg.Base, Clients: cfg.Clients,
		Phases: cfg.Phases, RequestsPerPhase: cfg.Requests, RatePerSec: cfg.Rate,
	}
	cli := &serve.Client{Base: cfg.Base, HTTP: cfg.HTTP}
	sc, err := scrape(ctx, cli, 0)
	if err != nil {
		return rep, fmt.Errorf("load: pre-run scrape: %w", err)
	}
	rep.Scrapes = append(rep.Scrapes, sc)

	col := &collector{rep: &rep, sweeps: make(map[string]bool)}
	var pace <-chan time.Time
	if cfg.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer t.Stop()
		pace = t.C
	}

	start := time.Now()
	for phase := 1; phase <= cfg.Phases; phase++ {
		runPhase(ctx, cfg, cli, col, phase, pace)
		sc, err := scrape(ctx, cli, phase)
		if err != nil {
			return rep, fmt.Errorf("load: phase %d scrape: %w", phase, err)
		}
		rep.Scrapes = append(rep.Scrapes, sc)
	}
	rep.DurMS = time.Since(start).Milliseconds()

	sort.Float64s(col.latencies)
	rep.Latency = latencyStats(col.latencies)
	if secs := float64(rep.DurMS) / 1000; secs > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / secs
		rep.CellsPerSec = float64(rep.Cells.Total) / secs
	}
	if rep.Cells.Total > 0 {
		rep.DedupRatio = 1 - float64(rep.Cells.Computed)/float64(rep.Cells.Total)
	}
	if rep.Submitted > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Submitted)
	}
	for id := range col.sweeps {
		rep.Sweeps = append(rep.Sweeps, id)
	}
	sort.Strings(rep.Sweeps)
	return rep, ctx.Err()
}

// runPhase fires one batch of cfg.Requests submissions across the
// client pool.
func runPhase(ctx context.Context, cfg Config, cli *serve.Client, col *collector, phase int, pace <-chan time.Time) {
	var seq atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(seq.Add(1)) - 1
				if n >= cfg.Requests || ctx.Err() != nil {
					return
				}
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				oneRequest(ctx, cfg, cli, col, fmt.Sprintf("wlload-p%d-r%d", phase, n), cfg.Specs[n%len(cfg.Specs)])
			}
		}()
	}
	wg.Wait()
}

// oneRequest submits one sweep and folds its outcome into the
// collector. Latency is submit→done: the full streamed sweep, not
// just the accept.
func oneRequest(ctx context.Context, cfg Config, cli *serve.Client, col *collector, rid string, spec serve.Spec) {
	t0 := time.Now()
	st, err := cli.SubmitRequest(ctx, spec, rid)
	col.mu.Lock()
	col.rep.Submitted++
	col.mu.Unlock()
	if err != nil {
		var oe *serve.OverloadedError
		var se *serve.StatusError
		switch {
		case errors.As(err, &oe):
			col.mu.Lock()
			col.rep.Shed++
			col.mu.Unlock()
		case errors.As(err, &se) && se.Code >= 500:
			col.mu.Lock()
			col.rep.HTTP5xx++
			col.rep.Failed++
			col.noteErr(err)
			col.mu.Unlock()
		default:
			col.fail(err)
		}
		return
	}
	_, done, derr := st.Drain()
	st.Close()
	lat := time.Since(t0)

	col.mu.Lock()
	defer col.mu.Unlock()
	col.sweeps[st.Accepted.Sweep] = true
	if derr != nil {
		col.rep.Failed++
		col.noteErr(fmt.Errorf("sweep %s stream: %w", st.Accepted.Sweep, derr))
		return
	}
	if done == nil {
		col.rep.Failed++
		col.noteErr(fmt.Errorf("sweep %s: stream ended without done event", st.Accepted.Sweep))
		return
	}
	col.rep.Completed++
	col.latencies = append(col.latencies, float64(lat.Microseconds())/1000)
	if done.Error != "" {
		col.noteErr(fmt.Errorf("sweep %s: %s", st.Accepted.Sweep, done.Error))
	}
	if m := done.Metrics; m != nil {
		col.rep.Cells.Total += m.Cells
		col.rep.Cells.Computed += m.Computed
		col.rep.Cells.FromJournal += m.FromJournal
		col.rep.Cells.FromShared += m.FromShared
		col.rep.Cells.Deduped += m.Deduped
		col.rep.Cells.Failed += m.Failed
		col.rep.Cells.Skipped += m.Skipped
		col.rep.Cells.Retries += m.Retries
	}
}

// scrape reads /metrics once, validating it as well-formed Prometheus
// text.
func scrape(ctx context.Context, cli *serve.Client, phase int) (Scrape, error) {
	m, err := cli.Metrics(ctx)
	if err != nil {
		return Scrape{}, err
	}
	return Scrape{Phase: phase, PromSamples: len(m), Metrics: m}, nil
}

// ScrapeProm fetches GET /metrics and parses it with the validating
// Prometheus text parser, returning every sample (serve.Client.Scrape).
func ScrapeProm(ctx context.Context, cli *serve.Client) ([]obs.PromSample, error) {
	return cli.Scrape(ctx)
}

// latencyStats computes exact order statistics from sorted samples.
func latencyStats(sorted []float64) Latency {
	if len(sorted) == 0 {
		return Latency{}
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Latency{
		P50MS:  percentile(sorted, 0.50),
		P95MS:  percentile(sorted, 0.95),
		P99MS:  percentile(sorted, 0.99),
		MeanMS: sum / float64(len(sorted)),
		MaxMS:  sorted[len(sorted)-1],
	}
}

// percentile returns the nearest-rank q-percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ReadReport decodes and validates a wlload/v1 document.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, err
	}
	if rep.Schema != Schema {
		return rep, fmt.Errorf("load: schema %q, want %q", rep.Schema, Schema)
	}
	return rep, nil
}

// Summarize renders the report as the fixed-width table wlobs (and
// wlload itself) prints.
func Summarize(r Report) string {
	title := fmt.Sprintf("%s %s — %d clients × %d phase(s) × %d requests",
		r.Schema, r.Target, r.Clients, r.Phases, r.RequestsPerPhase)
	t := stats.NewTable(title, "value")
	t.Add("submitted", float64(r.Submitted))
	t.Add("completed", float64(r.Completed))
	t.Add("shed_429", float64(r.Shed))
	t.Add("http_5xx", float64(r.HTTP5xx))
	t.Add("failed", float64(r.Failed))
	t.Add("throughput_rps", r.ThroughputRPS)
	t.Add("cells_per_sec", r.CellsPerSec)
	t.Add("latency_p50_ms", r.Latency.P50MS)
	t.Add("latency_p95_ms", r.Latency.P95MS)
	t.Add("latency_p99_ms", r.Latency.P99MS)
	t.Add("latency_mean_ms", r.Latency.MeanMS)
	t.Add("latency_max_ms", r.Latency.MaxMS)
	t.Add("cells_total", float64(r.Cells.Total))
	t.Add("cells_computed", float64(r.Cells.Computed))
	t.Add("dedup_ratio", r.DedupRatio)
	t.Add("shed_rate", r.ShedRate)
	t.Add("dur_ms", float64(r.DurMS))
	return t.String()
}
