// Package hostinfo collects the machine and binary identity that makes
// performance numbers comparable: go toolchain, GOMAXPROCS, CPU model,
// the simulator engine version and the git commit the binary was built
// from. Reports embed an Info block so the run-history store can key
// every entry comparable-or-explicitly-not; the CLIs print it under
// -version so operators can correlate deployed binaries with history
// entries.
package hostinfo

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"wlcache/internal/sim"
)

// Info is the host metadata block embedded in the bench/ module's
// wlperf/v1 reports and used for run-history comparability keys.
type Info struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// Engine is sim.EngineVersion: simulated outcomes from different
	// engines are different experiments, not regressions.
	Engine string `json:"engine"`
	// GitCommit is the VCS revision baked into the binary (empty when
	// built outside a checkout and no CI env names one).
	GitCommit string `json:"git_commit,omitempty"`
}

// Collect gathers the current process's host metadata.
func Collect() Info {
	return Info{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Engine:     sim.EngineVersion,
		GitCommit:  gitCommit(),
	}
}

// Fingerprint collapses the performance-relevant identity into one
// comparable string. Two entries with equal fingerprints ran on the
// same class of machine; anything else makes wall-clock comparisons
// meaningless. The zero Info fingerprints as "unknown" — the key old
// reports without a host block ingest under.
func (i Info) Fingerprint() string {
	if i.GoVersion == "" {
		return "unknown"
	}
	return fmt.Sprintf("%s %s/%s maxprocs=%d cpu=%s",
		i.GoVersion, i.GOOS, i.GOARCH, i.GoMaxProcs, i.CPUModel)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back
// to the architecture when the file is absent (non-Linux) or unparsed.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name", "Hardware", "cpu model":
			if v := strings.TrimSpace(val); v != "" {
				return v
			}
		}
	}
	return runtime.GOARCH
}

// gitCommit returns the VCS revision recorded by the go toolchain at
// build time, or the CI-provided GITHUB_SHA when the build info lacks
// one (e.g. `go run` of a dirty checkout under Actions).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return os.Getenv("GITHUB_SHA")
}

// Version renders the -version output every CLI shares: tool name,
// engine version, toolchain, host fingerprint and commit.
func Version(tool string) string {
	i := Collect()
	commit := i.GitCommit
	if commit == "" {
		commit = "unknown"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", tool, i.Engine)
	fmt.Fprintf(&b, "  go:     %s %s/%s\n", i.GoVersion, i.GOOS, i.GOARCH)
	fmt.Fprintf(&b, "  host:   %s\n", i.Fingerprint())
	fmt.Fprintf(&b, "  commit: %s", commit)
	return b.String()
}
