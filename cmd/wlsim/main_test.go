package main

import (
	"encoding/json"
	"errors"
	"flag"
	"slices"
	"strings"
	"testing"

	"wlcache/internal/expt"
)

func TestListBenchmarks(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adpcmdecode", "rijndael_e", "MediaBench", "MiBench"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("list missing %q", want)
		}
	}
}

// TestHelpNamesEveryKind: the -design help lists exactly the kinds
// the registry builds.
func TestHelpNamesEveryKind(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-h"}, &b); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	_, list, ok := strings.Cut(b.String(), "design kind: ")
	if !ok {
		t.Fatalf("no design kind list in:\n%s", b.String())
	}
	list, _, _ = strings.Cut(list, " (default")
	var want []string
	for _, k := range expt.AllKinds() {
		want = append(want, string(k))
	}
	if got := strings.Split(list, ", "); !slices.Equal(got, want) {
		t.Fatalf("-design help lists %q, want %q", got, want)
	}
}

func TestRunOneSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var b strings.Builder
	err := run([]string{"-design", "wl", "-workload", "basicmath", "-trace", "tr1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exec time", "outages", "checksum"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, b.String())
		}
	}
}

func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var b strings.Builder
	err := run([]string{"-design", "nvsram", "-workload", "basicmath", "-trace", "none", "-json"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	for _, key := range []string{"Design", "ExecTime", "Instructions", "Checksum"} {
		if _, ok := res[key]; !ok {
			t.Fatalf("JSON missing %q", key)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "bogus"}, &b); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestUnknownTraceFails(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("unknown trace panicked: %v", r)
		}
	}()
	var b strings.Builder
	err := run([]string{"-workload", "sha", "-trace", "bogus"}, &b)
	if err == nil || !strings.Contains(err.Error(), `unknown power source "bogus"`) {
		t.Fatalf("unknown trace: err = %v", err)
	}
}

func TestNonPositiveScaleFails(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("-scale 0 panicked: %v", r)
		}
	}()
	var b strings.Builder
	for _, scale := range []string{"0", "-2"} {
		err := run([]string{"-workload", "sha", "-scale", scale}, &b)
		if want := "-scale " + scale + ": want at least 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-scale %s: err = %v, want %q", scale, err, want)
		}
	}
}

func TestMaxlineOutOfRangeFails(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("-maxline out of range panicked: %v", r)
		}
	}()
	var b strings.Builder
	for _, ml := range []string{"-1", "9"} {
		err := run([]string{"-workload", "sha", "-trace", "none", "-maxline", ml}, &b)
		if want := "maxline " + ml + " out of range (1..8)"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-maxline %s: err = %v, want %q", ml, err, want)
		}
	}
}

func TestUnknownDesignErrors(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("unknown design panicked: %v", r)
		}
	}()
	var b strings.Builder
	err := run([]string{"-design", "bogus", "-workload", "sha", "-trace", "none"}, &b)
	if err == nil || !strings.Contains(err.Error(), `unknown design kind "bogus"`) {
		t.Fatalf("unknown design: err = %v", err)
	}
}
