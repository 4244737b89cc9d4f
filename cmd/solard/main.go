// Command solard serves the SolarCore simulation engine over HTTP: the
// full Runner API as a queryable service with request coalescing, a
// bounded LRU result cache and backpressure (internal/serve,
// DESIGN.md §12).
//
// Usage:
//
//	solard [-addr 127.0.0.1:8090] [-inflight 0] [-queue 0] [-cache 1024] \
//	       [-timeout 30s] [-grace 10s] [-access path|-] [-ratelimit 0] \
//	       [-store.dir /abs/path] [-store.maxbytes 268435456] \
//	       [-stream.maxevents 16384]
//
// Endpoints:
//
//	POST /v1/run      one day: RunSpec JSON in, DayResult JSON out
//	POST /v1/sweep    batch of specs over the bounded worker pool
//	GET  /v1/stream   live/replayed run event feed as Server-Sent Events
//	GET  /v1/policies Table 6 policy names
//	GET  /metrics     serve_* metrics registry snapshot as JSON
//	GET  /healthz     200 serving, 503 draining
//
// -addr with port 0 binds an ephemeral port; the bound address is
// printed as "solard: listening on http://HOST:PORT" so scripts can
// scrape it. -access streams one JSONL access-log line per request
// (obs.AccessEvent; "-" for stdout). -ratelimit N paces the simulation
// routes (POST /v1/*) to at most N requests per second through a token
// bucket — the fleet smoke test uses it to measure solargate's scale-out
// on a single host, and it doubles as a per-node admission throttle.
//
// -store.dir enables the crash-safe durable result store (internal/
// store, DESIGN.md §16): each result persists to that directory as it
// completes, so a node restarted after a drain or a kill -9 boots the
// same way and replays stored results byte-identically instead of
// re-simulating. The path must be absolute — a relative path would
// silently depend on the launch directory, and two launches from
// different places would look like an empty cache.
// -store.maxbytes caps the store's disk footprint (default 256 MiB;
// oldest records are evicted first) and must be positive. The boot
// warm start is announced as "solard: store warmed ...".
//
// -stream.maxevents bounds each live stream topic's retained history
// (internal/stream, DESIGN.md §17): a subscriber lagging further than
// that sees an explicit gap event instead of silently missing lines.
// 0 disables GET /v1/stream entirely (it answers 404). On
// SIGINT/SIGTERM the server drains: /healthz starts failing, new
// simulations are refused, both with Retry-After, in-flight requests
// finish (bounded by -grace), and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"solarcore/internal/edge"
	"solarcore/internal/obs"
	"solarcore/internal/serve"
	"solarcore/internal/sigctx"
	"solarcore/internal/store"
	"solarcore/internal/stream"
)

func main() {
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// fail prints one prefixed error line and returns the exit code. A
// console write error is not actionable, so it is discarded explicitly.
func fail(stderr io.Writer, format string, args ...any) int {
	_, _ = fmt.Fprintf(stderr, "solard: "+format+"\n", args...)
	return 1
}

// paced wraps h with a token bucket that admits at most perSec
// simulation requests (POST /v1/*) per second; read-only routes pass
// through unthrottled. A waiting request holds no worker slot, so the
// bucket shapes throughput without inflating the serve queue. The
// refill goroutine dies with ctx (process shutdown).
func paced(ctx context.Context, h http.Handler, perSec int) http.Handler {
	tokens := make(chan struct{}, perSec)
	go func() {
		t := time.NewTicker(time.Second / time.Duration(perSec))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				select {
				case tokens <- struct{}{}:
				default: // bucket full: unclaimed capacity does not bank beyond 1s
				}
			}
		}
	}()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
			select {
			case <-tokens:
			case <-r.Context().Done():
				return
			case <-ctx.Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// run is the testable entry point: ctx cancellation is the shutdown
// signal (main wires SIGINT/SIGTERM; tests cancel directly).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (port 0 = ephemeral)")
	inflight := fs.Int("inflight", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests waiting for a worker before 429 (0 = 4x inflight)")
	cache := fs.Int("cache", 1024, "LRU result-cache entries")
	timeout := fs.Duration("timeout", 30*time.Second, "per-simulation deadline")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	access := fs.String("access", "", "JSONL access-log path (\"-\" = stdout, empty = off)")
	ratelimit := fs.Int("ratelimit", 0, "max simulation requests per second (0 = unlimited)")
	storeDir := fs.String("store.dir", "", "durable result-store directory, absolute path (empty = off)")
	storeMax := fs.Int64("store.maxbytes", store.DefaultMaxBytes, "durable-store disk budget in bytes")
	streamMax := fs.Int("stream.maxevents", stream.DefaultMaxEvents, "per-run stream history bound (0 = disable /v1/stream)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cache < 1 {
		return fail(stderr, "-cache must be at least 1 entry")
	}
	if *timeout <= 0 || *grace <= 0 {
		return fail(stderr, "-timeout and -grace must be positive durations")
	}
	if *ratelimit < 0 {
		return fail(stderr, "-ratelimit must be >= 0")
	}
	if *storeDir != "" && !filepath.IsAbs(*storeDir) {
		return fail(stderr, "-store.dir must be an absolute path, got %q", *storeDir)
	}
	if *storeMax < 1 {
		return fail(stderr, "-store.maxbytes must be at least 1 byte")
	}
	if *streamMax < 0 {
		return fail(stderr, "-stream.maxevents must be >= 0")
	}

	sink, closeLog, err := edge.OpenAccessLog(*access, stdout)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	defer closeLog()

	// One registry shared by the server and the store, so /metrics
	// exports serve_* and store_* side by side.
	reg := obs.NewRegistry()
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Config{
			Dir:      *storeDir,
			MaxBytes: *storeMax,
			Registry: reg,
			Events:   sink,
			Clock:    time.Now,
		})
		if err != nil {
			return fail(stderr, "%v", err)
		}
		records, quarantined, ms := st.WarmStart()
		_, _ = fmt.Fprintf(stdout, "solard: store warmed %d records (%d bytes, %d quarantined) in %.1fms from %s\n",
			records, st.Bytes(), quarantined, ms, *storeDir)
	}

	var hub *stream.Hub
	if *streamMax > 0 {
		hub = stream.NewHub(stream.Config{MaxEvents: *streamMax, Registry: reg})
	}

	srv := serve.New(serve.Config{
		MaxInflight:  *inflight,
		MaxQueue:     *queue,
		CacheEntries: *cache,
		RunTimeout:   *timeout,
		Registry:     reg,
		Store:        st,
		Stream:       hub,
		AccessLog:    sink,
		Clock:        time.Now,
	})

	handler := srv.Handler()
	if *ratelimit > 0 {
		handler = paced(ctx, handler, *ratelimit)
	}
	// The store needs no close: a record is durable once Put returns, so
	// a clean shutdown and a kill -9 leave the same directory behind.
	return edge.Serve(ctx, "solard", *addr, "", handler, *grace, srv.StartDrain, stdout, stderr, srv.Close)
}
