// Command solarload hammers a running solard (or a solargate fleet) and
// reports throughput, latency percentiles and cache/coalesce/route
// effectiveness — the repo's end-to-end serving benchmark. It is built
// on solarcore/client, the same typed wire client the gate itself uses.
//
// Usage:
//
//	solarload -url http://127.0.0.1:8090 [-n 2000] [-dur 0] [-c 16] \
//	          [-site AZ] [-season Jul] [-mix HM2] [-policy MPPT&Opt] \
//	          [-step 8] [-distinct 1] [-timeout 10s] [-check] [-stream]
//
// -n sends a fixed request count; -dur sends for a fixed duration
// (whichever stops first when both are set). -c is the concurrent
// client count. -distinct rotates the day index across that many
// distinct specs, so 1 measures the pure cached/coalesced fast path and
// larger values force cache misses (and, against a gate, spread keys
// across the ring). -check probes /healthz and a single /v1/run instead
// of generating load (the scripts/check.sh smoke). -stream watches one
// run's GET /v1/stream event feed instead: it consumes the whole
// sequence (live or replayed), reports events/s with per-type counts,
// and fails unless the stream ends with a run_end event.
//
// The report breaks latency down per disposition: the backend's cache
// verdict (hit/miss/coalesced) and, through a gate, the route verdict
// (hedged/retried) — a hedged tail or a retry storm shows up as its own
// line instead of hiding in the aggregate percentiles.
//
// The exit code is non-zero when any response is dropped (transport
// error) or non-200 — the "zero dropped responses" gate of the serving
// benchmark.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/par"
	"solarcore/internal/route"
	"solarcore/internal/sigctx"
)

func main() {
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// pf writes best-effort CLI output; a console write error is not
// actionable mid-run, so it is discarded explicitly.
func pf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// fail prints one prefixed error line and returns the exit code.
func fail(stderr io.Writer, format string, args ...any) int {
	pf(stderr, "solarload: "+format+"\n", args...)
	return 1
}

// shot is one request's outcome. disp is the latency-bucketing label:
// the route verdict (hedged/retried) when the gate reports one, else
// the backend's cache verdict (hit/miss/coalesced).
type shot struct {
	ms      float64
	status  int
	cache   string
	disp    string
	dropped bool
}

// percentile returns the q-quantile (0 < q <= 1) of sorted ms samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solarload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseURL := fs.String("url", "", "solard/solargate base URL, e.g. http://127.0.0.1:8090 (required)")
	n := fs.Int("n", 2000, "total requests to send (0 = unlimited, use -dur)")
	dur := fs.Duration("dur", 0, "send for this long (0 = until -n requests)")
	conc := fs.Int("c", 16, "concurrent clients")
	siteCode := fs.String("site", "AZ", "spec: site code")
	seasonName := fs.String("season", "Jul", "spec: season")
	mixName := fs.String("mix", "HM2", "spec: workload mix")
	policy := fs.String("policy", solarcore.PolicyOpt, "spec: MPPT policy")
	step := fs.Float64("step", 8, "spec: sub-sampling step in minutes")
	distinct := fs.Int("distinct", 1, "rotate the day index over this many distinct specs")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	check := fs.Bool("check", false, "probe /healthz and one /v1/run, then exit")
	streamMode := fs.Bool("stream", false, "watch one run's /v1/stream event feed, report events/s, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseURL == "" {
		return fail(stderr, "-url is required")
	}
	if *conc < 1 || *distinct < 1 {
		return fail(stderr, "-c and -distinct must be at least 1")
	}
	if *n <= 0 && *dur <= 0 {
		return fail(stderr, "give -n, -dur or both")
	}
	if *timeout <= 0 {
		return fail(stderr, "-timeout must be a positive duration")
	}
	spec := solarcore.RunSpec{Site: *siteCode, Season: *seasonName, Mix: *mixName,
		Policy: *policy, StepMin: *step}
	if err := spec.Validate(); err != nil {
		return fail(stderr, "%v", err)
	}
	cli := client.New(*baseURL)

	if *check {
		return runCheck(ctx, cli, spec, *timeout, stdout, stderr)
	}
	if *streamMode {
		return runStream(ctx, cli, spec, *timeout, stdout, stderr)
	}

	// Pre-build the typed requests: one per distinct day index.
	reqs := make([]client.RunRequest, *distinct)
	for i := range reqs {
		s := spec
		s.Day = i
		reqs[i] = client.RunRequest{RunSpec: s}
	}

	var (
		mu    sync.Mutex
		shots []shot
	)
	lctx := ctx
	if *dur > 0 {
		var cancel context.CancelFunc
		lctx, cancel = context.WithTimeout(ctx, *dur)
		defer cancel()
	}
	total := *n
	if total <= 0 {
		total = math.MaxInt // -dur alone: run until lctx ends
	}
	start := time.Now()
	par.Each(lctx, total, *conc, func(i int) {
		sh := fire(lctx, cli, reqs[i%len(reqs)], *timeout)
		mu.Lock()
		shots = append(shots, sh)
		mu.Unlock()
	})
	wall := time.Since(start)

	return report(ctx, cli, shots, wall, stdout, stderr)
}

// fire sends one typed run request and measures it.
func fire(ctx context.Context, cli *client.Client, req client.RunRequest, timeout time.Duration) shot {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	res, err := cli.Run(rctx, req)
	ms := time.Since(start).Seconds() * 1000
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return shot{ms: ms, status: ae.Status}
		}
		return shot{dropped: true}
	}
	sh := shot{ms: ms, status: 200, cache: res.Cache, disp: res.Cache}
	// Through a gate, hedged/retried routes are the interesting latency
	// populations; they take precedence as the bucketing label.
	if res.Route == client.RouteHedged || res.Route == client.RouteRetried {
		sh.disp = res.Route
	}
	return sh
}

// report prints the latency/throughput summary, per-disposition latency
// breakdown, and the server's own counters, then decides the exit code.
func report(ctx context.Context, cli *client.Client, shots []shot, wall time.Duration, stdout, stderr io.Writer) int {
	var ok, dropped, non200 int
	cacheDisp := map[string]int{}
	byDisp := map[string][]float64{}
	var lat []float64
	for _, sh := range shots {
		switch {
		case sh.dropped:
			dropped++
		case sh.status != 200:
			non200++
		default:
			ok++
			lat = append(lat, sh.ms)
			cacheDisp[sh.cache]++
			if sh.disp != "" {
				byDisp[sh.disp] = append(byDisp[sh.disp], sh.ms)
			}
		}
	}
	sort.Float64s(lat)
	secs := wall.Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(ok) / secs
	}
	pf(stdout, "requests     : %d total, %d ok, %d non-200, %d dropped\n",
		len(shots), ok, non200, dropped)
	pf(stdout, "wall         : %.2f s  (%.0f req/s sustained)\n", secs, rate)
	pf(stdout, "latency ms   : p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99), percentile(lat, 1))
	total := cacheDisp[obs.CacheHit] + cacheDisp[obs.CacheMiss] + cacheDisp[obs.CacheCoalesced]
	if total > 0 {
		pf(stdout, "dispositions : %d hit (%.1f%%), %d coalesced (%.1f%%), %d miss (%.1f%%)\n",
			cacheDisp[obs.CacheHit], 100*float64(cacheDisp[obs.CacheHit])/float64(total),
			cacheDisp[obs.CacheCoalesced], 100*float64(cacheDisp[obs.CacheCoalesced])/float64(total),
			cacheDisp[obs.CacheMiss], 100*float64(cacheDisp[obs.CacheMiss])/float64(total))
	}
	// One latency line per disposition, stable order: cache verdicts
	// first, then gate route verdicts.
	for _, d := range []string{obs.CacheHit, obs.CacheCoalesced, obs.CacheMiss,
		client.RouteHedged, client.RouteRetried} {
		samples := byDisp[d]
		if len(samples) == 0 {
			continue
		}
		sort.Float64s(samples)
		pf(stdout, "  %-11s: %6d reqs  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
			d, len(samples), percentile(samples, 0.50), percentile(samples, 0.95),
			percentile(samples, 0.99), percentile(samples, 1))
	}
	printServerCounters(ctx, cli, stdout)
	if dropped > 0 || non200 > 0 {
		return fail(stderr, "%d dropped, %d non-200 responses", dropped, non200)
	}
	return 0
}

// printServerCounters fetches /metrics and echoes the serve_* counters
// (fleet-merged when -url points at a gate); best-effort — a metrics
// failure does not fail the load run.
func printServerCounters(ctx context.Context, cli *client.Client, stdout io.Writer) {
	mctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	snap, err := cli.Metrics(mctx)
	if err != nil {
		return
	}
	pf(stdout, "server       : runs %.0f, cache hits %.0f, misses %.0f, coalesced %.0f, rejected %.0f, evictions %.0f\n",
		snap.Counters["serve_runs_total"], snap.Counters["serve_cache_hits_total"],
		snap.Counters["serve_cache_misses_total"], snap.Counters["serve_coalesced_total"],
		snap.Counters["serve_rejected_total"], snap.Counters["serve_cache_evictions_total"])
	if snap.Counters[route.MetricRequests] > 0 {
		pf(stdout, "gate         : requests %.0f, hedges %.0f (won %.0f), retries %.0f, healthy backends %.0f\n",
			snap.Counters[route.MetricRequests], snap.Counters[route.MetricHedges],
			snap.Counters[route.MetricHedgeWins], snap.Counters[route.MetricRetries],
			snap.Gauges[route.MetricBackendsHealthy])
	}
}

// runStream is the -stream watcher: it opens the spec's event feed,
// drains it to the end and reports the consumption rate. Gap events are
// surfaced explicitly (a gapped watch is a lossy one), and a stream
// that ends on anything but run_end fails the probe.
func runStream(ctx context.Context, cli *client.Client, spec solarcore.RunSpec, timeout time.Duration, stdout, stderr io.Writer) int {
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	st, err := cli.Stream(sctx, client.StreamRequest{RunRequest: client.RunRequest{RunSpec: spec}})
	if err != nil {
		return fail(stderr, "stream: %v", err)
	}
	defer func() { _ = st.Close() }()
	counts := map[string]int{}
	var events int
	var dropped uint64
	var lastType string
	start := time.Now()
	for {
		ev, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fail(stderr, "stream: %v", err)
		}
		events++
		counts[ev.Type]++
		lastType = ev.Type
		if ev.Type == obs.TypeGap && ev.Event != nil && ev.Event.Gap != nil {
			dropped += ev.Event.Gap.Dropped
		}
	}
	secs := time.Since(start).Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(events) / secs
	}
	pf(stdout, "stream       : %d events in %.2f s (%.0f events/s), resume cursor %d\n",
		events, secs, rate, st.LastEventID())
	// Stable order: lifecycle frame types first, then anything else.
	for _, typ := range []string{obs.TypeRunStart, obs.TypeTrack, obs.TypeAlloc,
		obs.TypeTick, obs.TypeFault, obs.TypeWatchdog, obs.TypeGap, obs.TypeRunEnd} {
		if counts[typ] > 0 {
			pf(stdout, "  %-11s: %d\n", typ, counts[typ])
		}
	}
	if dropped > 0 {
		pf(stdout, "  gapped      : %d events dropped by the hub's bounded history\n", dropped)
	}
	if lastType != obs.TypeRunEnd {
		return fail(stderr, "stream ended on %q, want %q", lastType, obs.TypeRunEnd)
	}
	return 0
}

// runCheck is the -check probe: /healthz must answer 200 and one
// /v1/run must produce a DayResult.
func runCheck(ctx context.Context, cli *client.Client, spec solarcore.RunSpec, timeout time.Duration, stdout, stderr io.Writer) int {
	hctx, hcancel := context.WithTimeout(ctx, timeout)
	defer hcancel()
	if err := cli.Healthz(hctx); err != nil {
		return fail(stderr, "healthz: %v", err)
	}
	pf(stdout, "healthz      : ok\n")

	rctx, rcancel := context.WithTimeout(ctx, timeout)
	defer rcancel()
	rres, err := cli.Run(rctx, client.RunRequest{RunSpec: spec})
	if err != nil {
		return fail(stderr, "run: %v", err)
	}
	res, err := rres.Decode()
	if err != nil {
		return fail(stderr, "run: %v", err)
	}
	pf(stdout, "run          : %s mix %s %s — %.0f Wh solar (%.1f%% utilization), cache %s\n",
		res.Policy, res.Mix, res.Label, res.SolarWh, res.Utilization()*100, rres.Cache)
	return 0
}
