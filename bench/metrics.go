package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// e2eUnits are the end-to-end metrics every workload prints with
// -trace 0, and their units. An operation is one /v1/run on miss-run,
// hit-run and replay-watch (its /v1/run clients), one 24-cell /v1/sweep
// on sweep-grid and one full paper grid on paper-grid.
var e2eUnits = map[string]string{
	"req_per_s":  "1/s", // successful operations per second
	"lat_p50_ms": "ms",  // operation latency, median
	"lat_p90_ms": "ms",  // operation latency, 90th percentile
	"lat_p99_ms": "ms",  // operation latency, 99th percentile
	"setup_s":    "s",   // process launch to measured-phase start, median of set-ups
	"rss_mb":     "MB",  // summed peak RSS of the processes under test
}

// layerUnits are the per-layer metrics every workload prints with
// -trace 1, and their units.
var layerUnits = map[string]string{
	"spec.validate_us":       "us",
	"spec.hash_us":           "us",
	"atmos.generate_ms":      "ms",
	"sim.day_build_ms":       "ms",
	"pv.mpp_us":              "us",
	"sim.day_reuse":          "cells/day",
	"sim.run_ms":             "ms",
	"sim.run_allocs":         "allocs",
	"sim.cells_per_s":        "1/s",
	"mppt.track_us":          "us",
	"serve.marshal_us":       "us",
	"serve.result_miss_ms":   "ms",
	"serve.fill_overhead_ms": "ms",
	"serve.result_hit_us":    "us",
	"serve.wait_ms":          "ms",
	"serve.cache_hit_ratio":  "ratio",
	"serve.coalesced_frac":   "ratio",
	"serve.rejected":         "count",
	"client.wire_us":         "us",
	"route.hop_us":           "us",
	"route.hedge_frac":       "ratio",
	"route.retry_frac":       "ratio",
	"store.put_ms":           "ms",
	"store.get_us":           "us",
	"store.warm_start_ms":    "ms",
	"store.hit_ratio":        "ratio",
	"stream.replay_ms":       "ms",
	"stream.gap_events":      "count",
	"stream.first_event_ms":  "ms",
	"stream.events_per_s":    "1/s",
	"exp.cell_ms":            "ms",
	"exp.days_built":         "count",
	"trace.unaccounted_frac": "ratio",
	"trace.overhead_frac":    "ratio",
}

// withUnits attaches units to values. A name with no unit, or a unit
// with no value, is a bug in the benchmark and panics.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			panic("bench: metric " + name + " was not measured")
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			panic("bench: metric " + name + " has no unit")
		}
	}
	return out
}

// fields describe the run, beside its metrics.
type fields struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	SrcLines   int    `json:"src_lines"`
}

func runFields(root string) fields {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	f := fields{Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f.Commit, f.Dirty = commit(root)
	f.SrcLines = srcLines(root)
	return f
}

// commit reports the checkout's HEAD and whether tracked files differ
// from it. A checkout without .git (an exported tree) reads "unknown".
func commit(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(head)), err != nil || len(strings.TrimSpace(string(status))) > 0
}

// srcLines counts the lines of the system's non-test Go source: every
// .go file outside tests, testdata, hidden directories and the
// benchmark's own directory.
func srcLines(root string) int {
	own := filepath.Join(root, "bench")
	n := 0
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (path == own || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			n += strings.Count(string(data), "\n")
		}
		return nil
	})
	return n
}
