// Command wltrace prints the statistics of a built-in power trace or
// of a custom synthetic RF trace.
//
// Usage:
//
//	wltrace -trace tr1                          # statistics
//	wltrace -gen "mean=8e-3,vol=0.9,dead=0.2"   # synthesize a custom RF trace
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"wlcache/internal/hostinfo"
	"wlcache/internal/power"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wltrace:", err)
		os.Exit(1)
	}
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wltrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		src = fs.String("trace", "tr1", "built-in source: tr1, tr2, tr3, solar, thermal")
		gen = fs.String("gen", "", `synthesize a custom RF trace: "mean=10e-3,vol=0.5,dead=0.1,seed=7"`)
		ver = fs.Bool("version", false, "print engine version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ver {
		fmt.Fprintln(stdout, hostinfo.Version("wltrace"))
		return nil
	}

	var tr *power.Trace
	if *gen != "" {
		t, err := genTrace(*gen)
		if err != nil {
			return err
		}
		tr = t
	} else {
		known := false
		for _, s := range power.Sources() {
			if s == power.Source(*src) {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("source %q has no trace", *src)
		}
		tr = power.Get(power.Source(*src))
	}

	mean := tr.Mean()
	peak, dead := 0.0, 0
	for _, p := range tr.Samples {
		if p > peak {
			peak = p
		}
		if p < 0.1*mean {
			dead++
		}
	}
	fmt.Fprintf(stdout, "trace %s: %d samples, %.1f us step, %.3f s loop\n",
		tr.Name, len(tr.Samples), float64(tr.Step)/1e6, float64(tr.Duration())/1e12)
	fmt.Fprintf(stdout, "  mean power %.2f mW, peak %.2f mW, dead (<10%% of mean) %.1f%%\n",
		mean*1e3, peak*1e3, 100*float64(dead)/float64(len(tr.Samples)))
	return nil
}

// genTrace parses "key=value,..." synthesis parameters. mean and vol
// must be finite and non-negative, dead a probability in [0, 1], and
// seed an integer.
func genTrace(spec string) (*power.Trace, error) {
	mean, vol, dead := 10e-3, 0.5, 0.1
	seed := int64(7)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -gen field %q", kv)
		}
		var err error
		switch k {
		case "mean":
			mean, err = strconv.ParseFloat(v, 64)
		case "vol":
			vol, err = strconv.ParseFloat(v, 64)
		case "dead":
			dead, err = strconv.ParseFloat(v, 64)
		case "seed":
			seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("unknown -gen key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bad -gen value %q: %w", kv, err)
		}
	}
	switch {
	case !(mean >= 0) || math.IsInf(mean, 1):
		return nil, fmt.Errorf("-gen mean=%g: want a finite power >= 0", mean)
	case !(vol >= 0) || math.IsInf(vol, 1):
		return nil, fmt.Errorf("-gen vol=%g: want a finite volatility >= 0", vol)
	case !(dead >= 0 && dead <= 1):
		return nil, fmt.Errorf("-gen dead=%g: want a probability in [0, 1]", dead)
	}
	return power.SynthesizeRF("custom", seed, mean, vol, dead), nil
}
