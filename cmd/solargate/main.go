// Command solargate fronts a fleet of solard nodes with one consistent
// endpoint: the same wire API (solarcore/client, DESIGN.md §12), routed
// across shards by consistent hashing so every node's result cache owns
// a stable slice of the key space (internal/route, DESIGN.md §15).
//
// Usage:
//
//	solargate -backends http://h1:8090,http://h2:8090[,...] \
//	          [-addr 127.0.0.1:8099] [-vnodes 64] [-hedge 0] \
//	          [-hedge-min 25ms] [-hedge-max 500ms] [-retries 2] \
//	          [-probe 500ms] [-probe-jitter 0.2] [-fail 3] [-sweepmax 256] \
//	          [-grace 10s] [-access path|-]
//
// Endpoints (identical shapes to solard, plus routing headers):
//
//	POST /v1/run      routed to the spec's ring owner; X-Gate reports
//	                  primary/hedged/retried, X-Gate-Backend the node
//	POST /v1/sweep    per-cell fan-out to each cell's owning shard
//	GET  /v1/stream   SSE relay from the spec's owning shard; on a mid-
//	                  stream backend failure the gate reconnects (next
//	                  owner if ejected) with Last-Event-ID, so watchers
//	                  see one gapless sequence across the fail-over
//	GET  /v1/policies proxied to a healthy node (identical fleet-wide)
//	GET  /metrics     fleet-wide merge: route_* + every node's serve_*
//	                  and stream_* counters
//	GET  /healthz     200 while routable, 503 draining or fleet dark
//
// -hedge 0 (the default) derives the hedge delay from the live p95 of
// upstream latencies, clamped to [-hedge-min, -hedge-max]; a positive
// -hedge fixes it. -probe-jitter spreads each probe period over
// ±fraction of -probe (deterministically seeded) so a fleet of gates
// restarted together does not probe in lockstep; negative pins the
// period exactly. The bound address is printed as "solargate: listening
// on http://HOST:PORT". On SIGINT/SIGTERM the gate drains like solard:
// /healthz fails, new work is refused with Retry-After, in-flight
// requests finish under -grace, exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"solarcore/internal/edge"
	"solarcore/internal/route"
	"solarcore/internal/sigctx"
)

func main() {
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// fail prints one prefixed error line and returns the exit code. A
// console write error is not actionable, so it is discarded explicitly.
func fail(stderr io.Writer, format string, args ...any) int {
	_, _ = fmt.Fprintf(stderr, "solargate: "+format+"\n", args...)
	return 1
}

// run is the testable entry point: ctx cancellation is the shutdown
// signal (main wires SIGINT/SIGTERM; tests cancel directly).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solargate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8099", "listen address (port 0 = ephemeral)")
	backends := fs.String("backends", "", "comma-separated solard base URLs (required)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	hedge := fs.Duration("hedge", 0, "fixed hedge delay (0 = adaptive p95)")
	hedgeMin := fs.Duration("hedge-min", 25*time.Millisecond, "adaptive hedge delay floor")
	hedgeMax := fs.Duration("hedge-max", 500*time.Millisecond, "adaptive hedge delay ceiling")
	retries := fs.Int("retries", 2, "max fail-over retries per request")
	probe := fs.Duration("probe", 500*time.Millisecond, "health probe interval")
	probeJitter := fs.Float64("probe-jitter", 0.2, "probe period spread as a fraction of -probe (negative = pinned)")
	failN := fs.Int("fail", 3, "consecutive probe failures before ejection")
	sweepMax := fs.Int("sweepmax", 256, "max runs per sweep batch")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	access := fs.String("access", "", "JSONL access-log path (\"-\" = stdout, empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		return fail(stderr, "-backends is required: comma-separated solard base URLs")
	}
	if *vnodes < 1 {
		return fail(stderr, "-vnodes must be at least 1")
	}
	if *hedge < 0 || *hedgeMin <= 0 || *hedgeMax <= 0 || *hedgeMax < *hedgeMin {
		return fail(stderr, "hedge delays must be positive with -hedge-min <= -hedge-max")
	}
	if *retries < 0 {
		return fail(stderr, "-retries must be >= 0")
	}
	if *probe <= 0 || *grace <= 0 {
		return fail(stderr, "-probe and -grace must be positive durations")
	}
	if *failN < 1 {
		return fail(stderr, "-fail must be at least 1")
	}
	if *sweepMax < 1 {
		return fail(stderr, "-sweepmax must be at least 1")
	}
	if *probeJitter > 0.9 {
		return fail(stderr, "-probe-jitter must be at most 0.9 (got %v)", *probeJitter)
	}

	sink, closeLog, err := edge.OpenAccessLog(*access, stdout)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	defer closeLog()

	rt, err := route.New(route.Config{
		Backends:      urls,
		VNodes:        *vnodes,
		HedgeDelay:    *hedge,
		HedgeMin:      *hedgeMin,
		HedgeMax:      *hedgeMax,
		MaxRetries:    *retries,
		ProbeInterval: *probe,
		ProbeJitter:   *probeJitter,
		FailThreshold: *failN,
		MaxSweep:      *sweepMax,
		AccessLog:     sink,
		Clock:         time.Now,
	})
	if err != nil {
		return fail(stderr, "%v", err)
	}
	rt.Start(ctx)

	return edge.Serve(ctx, "solargate", *addr, fmt.Sprintf(" (backends %d)", len(urls)), rt.Handler(),
		*grace, rt.StartDrain, stdout, stderr, edge.Closer{Name: "close", Close: rt.Close})
}
