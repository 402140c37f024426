// Command wlload is the wlserve load harness: N concurrent clients
// submit overlapping sweep specs at a target rate, /metrics is scraped
// (and validated as Prometheus text) between phases, and the run is
// reported as a wlload/v1 JSON document — throughput, submit→done
// p50/p95/p99 latency, dedup ratio, 429 shed rate.
//
// Usage:
//
//	wlload -addr http://127.0.0.1:8080 -clients 4 -requests 8
//	wlload -serve-bin ./wlserve -report load.json -trace trace.json
//	wlobs summary load.json
//
// -serve-bin spawns a private wlserve (temp data dir, random port),
// runs the load against it and tears it down. -max-p99 turns the run
// into a gate: exit 2 when p99 exceeds the bound or any submission
// answered 5xx — the CI load-smoke contract.
//
// Exit codes: 0 ok, 1 usage or infrastructure failure, 2 gate
// violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/hostinfo"
	"wlcache/internal/load"
	"wlcache/internal/serve"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "", "target server root, e.g. http://127.0.0.1:8080 (or use -serve-bin)")
		serveBin = fs.String("serve-bin", "", "spawn this wlserve binary against a temp data dir and load-test it")
		clients  = fs.Int("clients", 4, "concurrent submitters")
		requests = fs.Int("requests", 0, "submissions per phase (0 = 2×clients)")
		phases   = fs.Int("phases", 1, "request batches, with a /metrics scrape between each")
		rate     = fs.Float64("rate", 0, "aggregate submissions per second (0 = unpaced)")
		designs  = fs.String("designs", "", "comma-separated design kinds for the primary spec (default: all)")
		wls      = fs.String("workloads", "", "comma-separated workloads (default: golden pair)")
		traces   = fs.String("traces", "", "comma-separated power traces (default: golden trio)")
		report   = fs.String("report", "", "write the wlload/v1 JSON report here")
		traceOut = fs.String("trace", "", "fetch the first sweep's Chrome trace_event export here")
		maxP99   = fs.Duration("max-p99", 0, "gate: exit 2 when submit→done p99 exceeds this (0 = no gate)")
		timeout  = fs.Duration("timeout", 10*time.Minute, "whole-run deadline")
		version  = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *version {
		fmt.Fprintln(stdout, hostinfo.Version("wlload"))
		return 0, nil
	}
	if (*addr == "") == (*serveBin == "") {
		return 1, fmt.Errorf("exactly one of -addr or -serve-bin is required")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	base := *addr
	if *serveBin != "" {
		proc, url, dir, err := startServer(*serveBin)
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(dir)
		defer stopServer(proc)
		base = url
	}

	cfg := load.Config{
		Base:     base,
		Clients:  *clients,
		Requests: *requests,
		Phases:   *phases,
		Rate:     *rate,
		Specs:    buildSpecs(*designs, *wls, *traces),
	}
	cli := &serve.Client{Base: base}
	if err := cli.WaitReady(ctx); err != nil {
		return 1, err
	}

	rep, err := load.Run(ctx, cfg)
	if err != nil {
		return 1, err
	}
	fmt.Fprint(stdout, load.Summarize(rep))

	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "report: %s\n", *report)
	}
	if *traceOut != "" && len(rep.Sweeps) > 0 {
		if err := fetchTrace(ctx, base, rep.Sweeps[0], *traceOut); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "trace: %s (sweep %s)\n", *traceOut, rep.Sweeps[0])
	}

	if rep.HTTP5xx > 0 {
		return 2, fmt.Errorf("gate: %d submission(s) answered 5xx", rep.HTTP5xx)
	}
	if *maxP99 > 0 && rep.Latency.P99MS > float64(maxP99.Milliseconds()) {
		return 2, fmt.Errorf("gate: p99 %.1fms exceeds bound %s", rep.Latency.P99MS, *maxP99)
	}
	if rep.Completed == 0 {
		return 2, fmt.Errorf("gate: no sweep completed (%d submitted, %d shed, %d failed)",
			rep.Submitted, rep.Shed, rep.Failed)
	}
	return 0, nil
}

// buildSpecs returns the overlapping spec pair: the primary spec from
// the dimension flags, alternated with a figure-kinds subset so
// concurrent submissions intersect and exercise the dedup path.
func buildSpecs(designs, wls, traces string) []serve.Spec {
	primary := serve.Spec{
		Designs:   splitCSV(designs),
		Workloads: splitCSV(wls),
		Traces:    splitCSV(traces),
	}
	subset := primary
	subset.Designs = overlapKinds(primary.Designs)
	return []serve.Spec{primary, subset}
}

// overlapKinds picks the subset spec's designs: the figure kinds,
// intersected with an explicit design list when one was given.
func overlapKinds(primary []string) []string {
	var figs []string
	for _, k := range expt.FigureKinds() {
		figs = append(figs, string(k))
	}
	if len(primary) == 0 {
		return figs
	}
	have := make(map[string]bool, len(primary))
	for _, d := range primary {
		have[d] = true
	}
	var out []string
	for _, f := range figs {
		if have[f] {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		// Disjoint: fall back to the primary's first design so the two
		// specs still overlap.
		out = primary[:1]
	}
	return out
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// startServer spawns the wlserve binary on a fresh temp data dir,
// removing the dir again if the server never comes up.
func startServer(bin string) (*exec.Cmd, string, string, error) {
	dir, err := os.MkdirTemp("", "wlload-data-*")
	if err != nil {
		return nil, "", "", err
	}
	cmd, url, err := serve.StartProcess(bin, dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", "", err
	}
	return cmd, url, dir, nil
}

// stopServer drains the spawned server: SIGTERM, then SIGKILL after a
// grace period.
func stopServer(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_, _ = cmd.Process.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fetchTrace saves GET /v1/sweeps/{id}/trace to a file.
func fetchTrace(ctx context.Context, base, sweepID, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+sweepID+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s: %s", sweepID, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
