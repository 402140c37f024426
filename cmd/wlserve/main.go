// Command wlserve runs the crash-tolerant HTTP sweep service: POST a
// sweep spec to /v1/sweeps and per-cell results stream back as NDJSON
// as they land. Every accepted sweep is journaled (wlrun/v1) under
// -data keyed by the spec's content hash, so a SIGKILL'd server
// restarts and serves or resumes every sweep with zero recomputation —
// just resubmit the same spec. Overlapping sweeps from concurrent
// clients dedupe through a shared content-addressed store; overload is
// shed with 429 + Retry-After; /healthz and /readyz expose liveness and
// drain state, and /metrics (Prometheus text) the dedup/resume
// counters and latency histograms.
//
// Usage:
//
//	wlserve -addr 127.0.0.1:8080 -data ./wlserve-data
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"workloads":["sha"],"traces":["tr1"]}'
//	kill -9 $(pidof wlserve)   # journals survive; restart and resubmit
//
// SIGINT/SIGTERM drain gracefully: running sweeps finish (or are
// cancelled at -drain, with every completed cell already durable), new
// submissions get 503. A second signal exits immediately.
//
// -kill-after N SIGKILLs the process after the N-th durable journal
// append; it exists for the crash-resume gate (wlbench -chaos, the one
// kill/resume proof of the repo's durable sweeps) and simulates a
// power failure with a precisely known journal footprint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlcache/internal/hostinfo"
	"wlcache/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "wlserve:", err)
		os.Exit(1)
	}
}

// run executes the CLI; factored out of main for testing. sig triggers
// graceful shutdown (first value) and immediate exit (second).
func run(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("wlserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		data       = fs.String("data", "", "data directory for sweep journals (required)")
		workers    = fs.Int("workers", 0, "worker pool size per sweep (0 = NumCPU)")
		maxSweeps  = fs.Int("max-sweeps", 0, "max sweeps running concurrently (0 = 2)")
		queue      = fs.Int("queue", 0, "max sweeps queued before load-shedding with 429 (0 = 8)")
		maxCells   = fs.Int("max-cells", 0, "max cells in one sweep spec (0 = 10000)")
		retryAfter = fs.Duration("retry-after", 0, "Retry-After hint on shed load (0 = 5s)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
		killAfter  = fs.Int("kill-after", 0, "SIGKILL this process after N durable journal appends (chaos harness internal)")
		logLevel   = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
		version    = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, hostinfo.Version("wlserve"))
		return nil
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %v", *logLevel, err)
	}

	cfg := serve.Config{
		DataDir:       *data,
		Workers:       *workers,
		MaxConcurrent: *maxSweeps,
		MaxQueue:      *queue,
		MaxCells:      *maxCells,
		RetryAfter:    *retryAfter,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
	}
	if *killAfter > 0 {
		n := *killAfter
		cfg.AfterJournal = func(total int) {
			if total < n {
				return
			}
			// Die the way a power failure would: no deferred cleanup,
			// no flushes. SIGKILL is not instantaneous — other sweeps'
			// goroutines run on until the process is gone — so every
			// append from the n-th on blocks for good, holding its own
			// sweep's journal lock: after the kill request no sweep makes
			// more than its one in-flight record durable.
			if total == n {
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
			}
			select {}
		}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The harness (and humans) parse this line for the actual port.
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	fmt.Fprintf(stdout, "draining (deadline %s)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintf(stdout, "drain deadline hit: in-flight cells journaled, rest skipped\n")
		}
		return nil
	case <-sig:
		return fmt.Errorf("second signal: exiting without drain")
	}
}
