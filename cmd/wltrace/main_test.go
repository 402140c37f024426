package main

import (
	"strings"
	"testing"
)

func TestBuiltinStats(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-trace", "tr3"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trace tr3") || !strings.Contains(b.String(), "mean power") {
		t.Fatalf("stats missing:\n%s", b.String())
	}
}

func TestUnknownSource(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-trace", "bogus"}, &b); err == nil {
		t.Fatal("unknown source accepted")
	}
}

// TestNoTraceFiles: wltrace reads and writes no trace files.
func TestNoTraceFiles(t *testing.T) {
	for _, name := range []string{"-csv", "-load"} {
		var b strings.Builder
		err := run([]string{name, "x.csv"}, &b)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestGenCustom: a full spec, the bounds of each range and a seed
// above 2^53 are accepted.
func TestGenCustom(t *testing.T) {
	for _, spec := range []string{
		"mean=5e-3,vol=0.3,dead=0.05,seed=3",
		"mean=0", "vol=0", "dead=0", "dead=1", "seed=-3", "seed=9007199254740993",
	} {
		var b strings.Builder
		if err := run([]string{"-gen", spec}, &b); err != nil {
			t.Errorf("-gen %q: %v", spec, err)
		} else if !strings.Contains(b.String(), "trace custom") {
			t.Errorf("-gen %q: custom trace not generated:\n%s", spec, b.String())
		}
	}
}

func TestGenBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"nope", "mean=abc", "unknown=1",
		// A seed is an integer: 1.5 would silently run seed 1, and a
		// float loses the low bits of a seed above 2^53.
		"seed=1.5", "seed=9007199254740993.0", "seed=abc",
		// Negative power and volatility, and a dead-zone probability
		// outside [0, 1], describe no trace.
		"mean=-5e-3", "vol=-0.1", "dead=-0.1", "dead=1.5",
		"mean=NaN", "mean=Inf", "vol=NaN", "dead=NaN",
	} {
		var b strings.Builder
		if err := run([]string{"-gen", spec}, &b); err == nil {
			t.Errorf("bad -gen spec %q accepted", spec)
		}
	}
}
