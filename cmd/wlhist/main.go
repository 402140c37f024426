// Command wlhist maintains the longitudinal run-history store: an
// append-only wlhist/v1 JSONL log of benchmark, load-test,
// observability and attribution results, keyed by engine version, git
// commit and host fingerprint so entries are comparable or explicitly
// not.
//
// `record` ingests report files (wlbench -json output, the PR-5
// before/after report, wlload/v1 reports, wlobs/v1 manifests,
// wlattr/v1 ledgers, or a saved Prometheus exposition) into the
// store, deduplicating by content. `scrape` pulls /metrics from a
// running wlserve and records the snapshot. `trend` prints a
// per-metric sparkline table; `html` writes the self-contained trend
// dashboard. `gate` judges each metric's newest transition against
// its comparable history and exits 2 on drift — host-speed metrics
// only ever gate against runs from the same host fingerprint, so a
// slower CI runner cannot fail the build, while simulated outcomes
// (checksums, outage counts) gate across hosts.
//
// Usage:
//
//	wlhist record -store HISTORY.jsonl -label pr8 BENCH_PR8.json
//	wlhist scrape -store HISTORY.jsonl -url http://127.0.0.1:8080/metrics
//	wlhist trend -store HISTORY.jsonl -filter ns_per_op
//	wlhist gate -store HISTORY.jsonl -threshold 0.10
//	wlhist html -store HISTORY.jsonl -out dashboard.html
//
// Exit codes (CI branches on these):
//
//	0  success; gate: no drift
//	1  usage or I/O error
//	2  gate: at least one metric regressed
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"wlcache/internal/hist"
	"wlcache/internal/hostinfo"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlhist:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the CLI; factored out of main for testing. The int is
// the process exit code for a completed command.
func run(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("usage: wlhist record|scrape|trend|gate|html|list [flags]; see `wlhist <cmd> -h`")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, hostinfo.Version("wlhist"))
		return 0, nil
	case "record":
		return runRecord(args[1:], stdout)
	case "scrape":
		return runScrape(args[1:], stdout)
	case "trend":
		return runTrend(args[1:], stdout)
	case "gate":
		return runGate(args[1:], stdout)
	case "html":
		return runHTML(args[1:], stdout)
	case "list":
		return runList(args[1:], stdout)
	}
	return 0, fmt.Errorf("unknown subcommand %q (want record, scrape, trend, gate, html or list)", args[0])
}

// storeFlag registers the shared -store flag.
func storeFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "HISTORY.jsonl", "history store (wlhist/v1 JSONL, append-only)")
}

func runRecord(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist record", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		store = storeFlag(fs)
		label = fs.String("label", "", "label recorded on every ingested entry")
		now   = fs.Int64("now", -1, "recorded_unix timestamp: -1 = wall clock, 0 = omit (deterministic, for committed baselines)")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() == 0 {
		return 0, fmt.Errorf("record: no input files (wlbench/wlload/wlobs/wlattr reports or a saved scrape)")
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	stamp := *now
	if stamp < 0 {
		stamp = time.Now().Unix()
	}
	for _, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		entries, err := hist.Ingest(raw, path, *label)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			e.RecordedUnix = stamp
			appended, added, err := s.Append(e)
			if err != nil {
				return 0, err
			}
			verb := "recorded"
			if !added {
				verb = "already recorded"
			}
			fmt.Fprintf(stdout, "%s %s (%d metrics) as seq %d id %.12s\n",
				verb, appended.Source.Name, len(appended.Metrics), appended.Seq, appended.ID)
		}
	}
	return 0, nil
}

func runScrape(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist scrape", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		store   = storeFlag(fs)
		url     = fs.String("url", "", "metrics endpoint of a running wlserve (e.g. http://127.0.0.1:8080/metrics)")
		label   = fs.String("label", "", "label recorded on the entry")
		timeout = fs.Duration("timeout", 10*time.Second, "scrape timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *url == "" {
		return 0, fmt.Errorf("scrape: -url is required")
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(*url)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape: %s returned %s", *url, resp.Status)
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	entries, err := hist.Ingest(raw, *url, *label)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		e.RecordedUnix = time.Now().Unix()
		appended, added, err := s.Append(e)
		if err != nil {
			return 0, err
		}
		verb := "recorded"
		if !added {
			verb = "already recorded"
		}
		fmt.Fprintf(stdout, "%s scrape of %s (%d metrics) as seq %d\n",
			verb, *url, len(appended.Metrics), appended.Seq)
	}
	return 0, nil
}

func runTrend(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist trend", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		store  = storeFlag(fs)
		filter = fs.String("filter", "", "only series whose name contains this substring")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	warnTorn(stdout, s)
	fmt.Fprint(stdout, hist.TrendTable(s, *filter))
	return 0, nil
}

func runGate(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist gate", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		store      = storeFlag(fs)
		threshold  = fs.Float64("threshold", 0.10, "relative change tolerated on perf metrics")
		percentile = fs.Float64("percentile", 0.95, "history quantile latency metrics are judged against")
		minHist    = fs.Int("min-history", 3, "comparable runs needed before the percentile rule applies")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	warnTorn(stdout, s)
	rep := hist.Gate(s, hist.GateConfig{
		Threshold:  *threshold,
		Percentile: *percentile,
		MinHistory: *minHist,
	})
	fmt.Fprint(stdout, hist.GateTable(rep))
	if rep.Regressions > 0 {
		fmt.Fprintf(stdout, "gate: %d metric(s) drifted\n", rep.Regressions)
		return 2, nil
	}
	fmt.Fprintln(stdout, "gate: no drift")
	return 0, nil
}

func runHTML(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist html", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		store = storeFlag(fs)
		out   = fs.String("out", "dashboard.html", "output HTML file")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	rep := hist.Gate(s, hist.GateConfig{})
	if err := os.WriteFile(*out, []byte(hist.Dashboard(s, rep)), 0o644); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "wrote %s (%d entries, %d series)\n", *out, s.Len(), len(s.SeriesAll()))
	return 0, nil
}

func runList(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wlhist list", flag.ContinueOnError)
	fs.SetOutput(stdout)
	store := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	warnTorn(stdout, s)
	for _, e := range s.Entries() {
		when := "-"
		if e.RecordedUnix > 0 {
			when = time.Unix(e.RecordedUnix, 0).UTC().Format("2006-01-02 15:04")
		}
		label := e.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(stdout, "%3d  %.12s  %-16s  %-12s  %-10s  %3d metrics  %s  host=%s\n",
			e.Seq, e.ID, when, e.Source.Format, label, len(e.Metrics), e.Source.Name, e.Key.Host)
	}
	fmt.Fprintf(stdout, "%d entries\n", s.Len())
	return 0, nil
}

// warnTorn surfaces a torn final line (a crash mid-append) once per
// command; the store already ignored it.
func warnTorn(stdout io.Writer, s *hist.Store) {
	if s.TornTail > 0 {
		fmt.Fprintf(stdout, "note: discarded %d-byte torn tail (crash mid-append)\n", s.TornTail)
	}
}
