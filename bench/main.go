// Command bench is solarcore's benchmark: five seeded workloads that
// drive real solard and solargate processes (and, for the paper grid,
// the experiment lab in process) with closed-loop clients, check every
// output, and print end-to-end metrics — or, with -trace 1, per-layer
// metrics from a separate traced run. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload miss-run -seed 1 [-seconds 15] [-trace 0|1]
//	bash bench/run.sh -seed 1                     # every workload in turn
//	bash bench/run.sh compare a.jsonl b.jsonl     # verdicts between two sets
//
// Each workload run prints a record line (the metrics plus the run's
// host, CPU, Go and commit fields) and, last, one JSON object with the
// keys correct, attempted, failed and metrics. It exits non-zero when
// any output check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/store"
)

// Benchmark constants: the same on every commit it compares.
const (
	setupRepeats = 3                    // set-ups per run; setup_s is their median
	traceOps     = 16                   // specs the traced run decomposes
	c1Seconds    = 2 * time.Second      // untraced one-client phase of a traced run
	stopTimeout  = 150 * time.Second    // per-workload budget before the run gives up
	defaultRunS  = 15                   // measured seconds, as in BENCHMARK.json
	binSubdir    = ".bench_build/bin"   // built servers, under the repository root
	workSubdir   = ".bench_build/work"  // per-run scratch, removed at exit
	traceSubdir  = ".bench_build/trace" // default span output of -trace 1
	recordTag    = "solarcore-bench"    // the record field of every record line
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// pf writes best-effort CLI output; a console write error is not
// actionable mid-run, so it is discarded explicitly.
func pf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one workload run: the result plus what
// is needed to compare runs and to reproduce them.
type record struct {
	Record   string `json:"record"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Fields   fields `json:"fields"`
	result
	Checks  int      `json:"checks"`
	Samples int      `json:"lat_samples"` // successful operations the latencies come from
	Windows int      `json:"lat_windows"` // windows the e2e numbers are medians over
	Errors  []string `json:"errors,omitempty"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "repository root (default: the directory holding cmd/solard, here or above)")
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", defaultRunS, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
	traceDir := fs.String("trace.dir", "", "where -trace 1 writes spans (default <root>/"+traceSubdir+")")
	out := fs.String("out", "", "also append each record line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		pf(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] | bench compare A B\n")
		return 2
	}
	names := workloadNames
	if *name != "" {
		if !slices.Contains(workloadNames, *name) {
			pf(stderr, "bench: unknown workload %q (want one of %v)\n", *name, workloadNames)
			return 2
		}
		names = []string{*name}
	}
	r, err := findRoot(*root)
	if err != nil {
		pf(stderr, "bench: %v\n", err)
		return 1
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(r, traceSubdir)
	}
	ctx, cancel := context.WithTimeout(ctx, stopTimeout*time.Duration(len(names)))
	defer cancel()

	e := &env{bin: filepath.Join(r, binSubdir), seed: *seed, nproc: runtime.NumCPU()}
	if err := buildServers(r, e.bin); err != nil {
		pf(stderr, "bench: %v\n", err)
		return 1
	}
	e.work = filepath.Join(r, workSubdir, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		pf(stderr, "bench: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(e.work) }()
	f := runFields(r)

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		rec, err := runWorkload(ctx, e, n, *seconds, *trace == 1, *traceDir)
		if err != nil {
			pf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		rec.Fields = f
		for _, msg := range rec.Errors {
			pf(stderr, "bench: %s: %s\n", n, msg)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			pf(stderr, "bench: %v\n", err)
			return 1
		}
		pf(stdout, "%s\n", line)
		if *out != "" {
			if err := appendLine(*out, line); err != nil {
				pf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for k, m := range rec.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			all.Metrics[k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		pf(stderr, "bench: %v\n", err)
		return 1
	}
	pf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// findRoot returns dir, or else the working directory or its parent,
// whichever holds cmd/solard.
func findRoot(dir string) (string, error) {
	cands := []string{dir}
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		cands = []string{wd, filepath.Dir(wd)}
	}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "cmd", "solard", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no repository root with cmd/solard among %v", cands)
}

// runWorkload sets the workload up and measures it setupRepeats times,
// a third of the measured seconds on each fresh set-up, then checks its
// outputs; with trace it ends with the one-client phase and the traced
// run on the last set-up.
func runWorkload(ctx context.Context, e *env, name string, seconds int, trace bool, traceDir string) (*record, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	rec := &record{Record: recordTag, Workload: name, Seed: e.seed, Seconds: seconds}
	if trace {
		rec.Trace = 1
	}
	var runs []measured
	for k := range setupRepeats {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, errors.Join(fmt.Errorf("set-up: %w", err), w.teardown())
		}
		setupS := time.Since(t0).Seconds()
		m, err := measurePhase(ctx, w, time.Duration(seconds)*time.Second/setupRepeats)
		m.setupS = setupS
		if err == nil && k < setupRepeats-1 {
			err = w.teardown()
		}
		if err != nil {
			return nil, errors.Join(err, w.teardown())
		}
		runs = append(runs, m)
	}
	metrics, err := summarize(ctx, w, rec, runs, trace, filepath.Join(e.work, "trace-"+name), traceDir)
	if terr := w.teardown(); terr != nil {
		err = errors.Join(err, fmt.Errorf("teardown: %w", terr))
	}
	if err != nil {
		return nil, err
	}
	rec.Metrics = metrics
	rec.Correct = len(rec.Errors) == 0
	return rec, nil
}

// measured is one measured phase on one set-up.
type measured struct {
	ph     phase
	delta  map[string]float64 // /metrics counter deltas over the phase
	rssMB  float64
	setupS float64 // the set-up before the phase
}

// measurePhase runs one measured phase on a set-up workload.
func measurePhase(ctx context.Context, w workload, dur time.Duration) (measured, error) {
	var m measured
	before, err := w.metrics(ctx)
	if err != nil {
		return m, err
	}
	m.ph = runPhase(ctx, w.clients(), dur, w.op)
	if err := ctx.Err(); err != nil {
		return m, err
	}
	after, err := w.metrics(ctx)
	if err != nil {
		return m, err
	}
	m.delta = counterDelta(before, after)
	m.rssMB, err = w.rssMB()
	return m, err
}

// summarize checks the outputs of the measured phases and returns the
// metrics to print: end-to-end, or per-layer when trace is set.
func summarize(ctx context.Context, w workload, rec *record, runs []measured, trace bool, work, traceDir string) (map[string]metric, error) {
	var phases []phase
	var setups, rss []float64
	delta := map[string]float64{}
	elapsed := 0.0
	for _, m := range runs {
		phases = append(phases, m.ph)
		setups = append(setups, m.setupS)
		rss = append(rss, m.rssMB)
		elapsed += m.ph.elapsed.Seconds()
		for k, v := range m.delta {
			delta[k] += v
		}
		for c := range m.ph.failed {
			rec.Attempted += len(m.ph.ok[c]) + m.ph.failed[c]
			rec.Failed += m.ph.failed[c]
			if m.ph.errs[c] != nil {
				rec.Errors = append(rec.Errors, fmt.Sprintf("client %d: %d failed operations, first: %v", c, m.ph.failed[c], m.ph.errs[c]))
			}
		}
	}
	st := statsOf(phases, w.counted())
	rec.Samples, rec.Windows = st.n, st.windows
	checks, err := w.check(ctx, delta)
	rec.Checks = checks
	if err != nil {
		rec.Errors = append(rec.Errors, "check: "+err.Error())
	}
	if st.n == 0 {
		rec.Errors = append(rec.Errors, "no operation succeeded")
	}
	if !trace {
		return withUnits(map[string]float64{
			"req_per_s":  st.reqPerS,
			"lat_p50_ms": st.p50,
			"lat_p90_ms": st.p90,
			"lat_p99_ms": st.p99,
			"setup_s":    median(setups),
			"rss_mb":     median(rss),
		}, e2eUnits), nil
	}

	layers := map[string]float64{"stream.events_per_s": 0}
	for k, v := range w.layers(delta, elapsed) {
		layers[k] = v
	}
	hits, misses := delta[serve.MetricCacheHits], delta[serve.MetricCacheMisses]
	upstream := delta[route.MetricUpstreamMs+".count"]
	layers["sim.day_reuse"] = w.reuse()
	layers["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["serve.coalesced_frac"] = ratio(delta[serve.MetricCoalesced], misses)
	layers["serve.rejected"] = delta[serve.MetricRejected]
	layers["route.hedge_frac"] = ratio(delta[route.MetricHedges], upstream)
	layers["route.retry_frac"] = ratio(delta[route.MetricRetries], upstream)
	layers["store.hit_ratio"] = ratio(delta[store.MetricHits], delta[store.MetricHits]+delta[store.MetricMisses])

	// The traced run: first the same operations untraced at one client,
	// then the in-process layer decomposition of the workload's specs.
	c1 := statsOf([]phase{runPhase(ctx, 1, c1Seconds, w.op)}, []int{0})
	if c1.failed > 0 {
		rec.Errors = append(rec.Errors, fmt.Sprintf("one-client phase: %d failed operations, first: %v", c1.failed, c1.firstErr))
	}
	layers["serve.wait_ms"] = st.p50 - c1.p50
	traced, spans, err := tracedRun(ctx, work, w.traceSpecs(traceOps))
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range traced {
		if _, ok := layers[k]; !ok {
			layers[k] = v
		}
	}
	if err := writeTrace(traceDir, rec.Workload, rec.Seed, layers, spans); err != nil {
		return nil, err
	}
	return withUnits(layers, layerUnits), nil
}
