// Command wlsim runs one benchmark on one cache design under one
// power trace and prints the full result.
//
// Usage:
//
//	wlsim -design wl -workload sha -trace tr1
//	wlsim -design nvsram -workload qsort -trace none -scale 4
//	wlsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wlcache/internal/expt"
	"wlcache/internal/hostinfo"
	"wlcache/internal/power"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlsim:", err)
		os.Exit(1)
	}
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wlsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	kinds := make([]string, 0, len(expt.AllKinds()))
	for _, k := range expt.AllKinds() {
		kinds = append(kinds, string(k))
	}
	var (
		design  = fs.String("design", "wl", "design kind: "+strings.Join(kinds, ", "))
		wl      = fs.String("workload", "sha", "benchmark name (see -list)")
		trace   = fs.String("trace", "tr1", "power source: none, tr1, tr2, tr3, solar, thermal")
		scale   = fs.Int("scale", 1, "input-size multiplier")
		maxline = fs.Int("maxline", 0, "override WL-Cache maxline (0 = default 6)")
		check   = fs.Bool("check", true, "verify crash-consistency invariants")
		tier    = fs.String("tier", "exact", "engine fidelity: exact (bit-exact) or fast (ε-bounded batched engine, DESIGN.md §16)")
		asJSON  = fs.Bool("json", false, "emit the result as JSON")
		list    = fs.Bool("list", false, "list benchmarks and exit")
		version = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, hostinfo.Version("wlsim"))
		return nil
	}

	if *list {
		fmt.Fprintln(stdout, "Benchmarks:")
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "  %-15s (%s)\n", w.Name, w.Suite)
		}
		return nil
	}

	if *scale < 1 {
		return fmt.Errorf("-scale %d: want at least 1", *scale)
	}
	cfg := sim.DefaultConfig()
	cfg.CheckInvariants = *check
	t, err := sim.ParseTier(*tier)
	if err != nil {
		return err
	}
	cfg.Tier = t
	opts := expt.Options{Maxline: *maxline}
	res, err := expt.Run(expt.Kind(*design), opts, *wl, *scale, power.Source(*trace), cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprint(stdout, res.String())
	return nil
}
