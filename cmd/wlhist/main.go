// Command wlhist maintains the longitudinal run-history store: an
// append-only wlhist/v1 JSONL log of benchmark and observability
// results, keyed by engine version, git commit and host fingerprint so
// entries are comparable or explicitly not.
//
// `record` ingests report files (wlperf/v1 reports from the bench/
// benchmark's -json, and wlobs/v1 manifests, which carry each run's
// cycle ledger) into the store, deduplicating by content. `trend`
// prints a per-metric sparkline table, the one rendering of the store;
// `list` prints one line per entry. `gate` judges each metric's newest
// transition against its comparable history and exits 2 on drift —
// host-speed metrics only ever gate against runs from the same host
// fingerprint, so a slower CI runner cannot fail the build, while
// simulated outcomes (failed benchmark cells, checksums, outage
// counts, cycle ledgers) gate across hosts.
//
// Usage:
//
//	wlhist record -store HISTORY.jsonl -now 0 -label baseline perf/*.json
//	wlhist trend -store HISTORY.jsonl -filter sim_mips
//	wlhist gate -store HISTORY.jsonl -threshold 0.10
//	wlhist list -store HISTORY.jsonl
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
		return 0, fmt.Errorf("usage: wlhist record|trend|gate|list [flags]; see `wlhist <cmd> -h`")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, hostinfo.Version("wlhist"))
		return 0, nil
	case "record":
		return runRecord(args[1:], stdout)
	case "trend":
		return runTrend(args[1:], stdout)
	case "gate":
		return runGate(args[1:], stdout)
	case "list":
		return runList(args[1:], stdout)
	}
	return 0, fmt.Errorf("unknown subcommand %q (want record, trend, gate or list)", args[0])
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
		return 0, fmt.Errorf("record: no input files (wlperf/v1 reports or wlobs/v1 manifests)")
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
		store     = storeFlag(fs)
		threshold = fs.Float64("threshold", 0.10, "relative change tolerated on perf metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	s, err := hist.Open(*store)
	if err != nil {
		return 0, err
	}
	warnTorn(stdout, s)
	rep := hist.Gate(s, hist.GateConfig{Threshold: *threshold})
	fmt.Fprint(stdout, hist.GateTable(rep))
	if rep.Regressions > 0 {
		fmt.Fprintf(stdout, "gate: %d metric(s) drifted\n", rep.Regressions)
		return 2, nil
	}
	fmt.Fprintln(stdout, "gate: no drift")
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
