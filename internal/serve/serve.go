// Package serve is solard's HTTP serving core: the full Runner API of
// the root package exposed as a stdlib-only (net/http) service with the
// three properties a simulation endpoint needs under heavy traffic
// (DESIGN.md §12):
//
//   - request coalescing — concurrent identical requests (same
//     solarcore.RunSpec.Hash) share one simulation via a singleflight
//     group, so a thundering herd costs one run;
//   - result caching — completed runs park their marshaled DayResult in
//     a bounded LRU (internal/lru), so repeats are O(1) replays that are
//     byte-identical to the first response;
//   - backpressure — simulations run on a bounded worker pool with a
//     bounded wait queue; beyond that the server sheds load immediately
//     with 429 + Retry-After instead of queueing unboundedly.
//
// Every simulation runs under a context deadline propagated into the
// engine's cooperative cancellation path, handlers are panic-contained,
// and each completed request can append one obs.AccessEvent JSONL line.
// The package reads no wall clock of its own: Config.Clock injects one
// (cmd/solard passes time.Now), keeping the package deterministic under
// test and honest about the repository's virtual-time rule.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"solarcore"
	"solarcore/internal/edge"
	"solarcore/internal/lru"
	"solarcore/internal/obs"
	"solarcore/internal/store"
	"solarcore/internal/stream"
)

// Server metric names, kept in the obs.Registry exported by /metrics
// (DESIGN.md §12).
const (
	// MetricRequests counts completed HTTP requests across all routes.
	MetricRequests = "serve_requests_total"
	// MetricRuns counts simulations actually executed (cache misses that
	// won the coalescing race).
	MetricRuns = "serve_runs_total"
	// MetricCacheHits / MetricCacheMisses count result-cache lookups.
	MetricCacheHits   = "serve_cache_hits_total"
	MetricCacheMisses = "serve_cache_misses_total"
	// MetricCoalesced counts requests served by joining an identical
	// in-flight simulation instead of starting their own.
	MetricCoalesced = "serve_coalesced_total"
	// MetricEvictions counts result-cache entries displaced by capacity.
	MetricEvictions = "serve_cache_evictions_total"
	// MetricRejected counts requests shed by backpressure (HTTP 429).
	MetricRejected = "serve_rejected_total"
	// MetricPanics counts handler panics contained by the middleware.
	MetricPanics = "serve_panics_total"
	// MetricRunMs is a histogram of simulation wall time in milliseconds
	// (zero without a Config.Clock).
	MetricRunMs = "serve_run_ms"
	// MetricInflight gauges simulations currently executing.
	MetricInflight = "serve_inflight"
)

// Load-shedding sentinels; the handler layer maps them to HTTP statuses
// (429 and 503) and callers of Result can test with errors.Is.
var (
	// ErrOverloaded means the worker pool and its wait queue are full.
	ErrOverloaded = errors.New("serve: over capacity")
	// ErrDraining means the server is shutting down and accepts no new
	// simulations.
	ErrDraining = errors.New("serve: draining")
)

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxInflight bounds concurrently executing simulations
	// (default runtime.GOMAXPROCS(0)).
	MaxInflight int
	// MaxQueue bounds requests waiting for a worker slot before the
	// server sheds load with 429 (default 4×MaxInflight).
	MaxQueue int
	// CacheEntries caps the LRU result cache (default 1024).
	CacheEntries int
	// RunTimeout is the per-simulation deadline (default 30s). A
	// request's timeout_ms field may shorten it, never extend past
	// MaxTimeout.
	RunTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (default 2×RunTimeout).
	MaxTimeout time.Duration
	// MaxSweep caps the runs accepted in one /v1/sweep batch (default 64).
	MaxSweep int
	// Registry receives the serve_* metrics; nil builds a private one.
	Registry *obs.Registry
	// Store, when non-nil, is the crash-safe durable result layer
	// (internal/store, DESIGN.md §16) behind the in-memory LRU: New
	// warm-starts the memory cache from its most recent records, misses
	// fall through to verified disk reads before simulating, and every
	// computed result is persisted — so a kill -9 and restart replays
	// cached results byte-identically instead of recomputing.
	Store *store.Store
	// Stream, when non-nil, enables GET /v1/stream: live runs publish
	// their obs events into per-run hub topics, watchers attach as SSE
	// subscribers, and completed runs replay their durable event tail
	// (DESIGN.md §17). nil serves 404 on the route.
	Stream *stream.Hub
	// Heartbeat is the idle interval after which /v1/stream emits a
	// keep-alive comment (default 15s).
	Heartbeat time.Duration
	// AccessLog, when non-nil, receives one obs.AccessEvent JSON line per
	// completed request.
	AccessLog *obs.JSONLSink
	// Clock supplies wall time for latency metrics and access-log
	// durations. nil is valid — durations then report zero — because
	// internal packages must not read the wall clock themselves
	// (solarvet's seededrand rule); cmd/solard injects time.Now.
	Clock func() time.Time
}

// withDefaults returns cfg with every zero field materialized.
func (c Config) withDefaults() Config {
	if c.MaxInflight < 1 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 1024
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * c.RunTimeout
	}
	if c.MaxSweep < 1 {
		c.MaxSweep = 64
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = func() time.Time { return time.Time{} }
	}
	return c
}

// Server is the serving core. Build one with New, mount Handler on an
// http.Server, and on shutdown call StartDrain (fail health checks,
// refuse new simulations), drain the listener, then Close.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *lru.Cache[string, []byte]
	group flightGroup

	sem      chan struct{} // worker-slot semaphore, capacity MaxInflight
	queued   atomic.Int64  // requests blocked waiting for a slot
	inflight atomic.Int64
	draining atomic.Bool

	// baseCtx parents every simulation so runs outlive the request that
	// coalesced onto them and die together at Close.
	baseCtx context.Context
	cancel  context.CancelFunc

	// runSpec executes one validated spec, streaming events to o when
	// non-nil; tests substitute a fake to exercise coalescing and
	// backpressure without simulating.
	runSpec func(ctx context.Context, spec solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error)

	mux *http.ServeMux
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		sem: make(chan struct{}, cfg.MaxInflight),
	}
	s.cache = lru.NewWithEvict[string, []byte](cfg.CacheEntries, func(string, []byte) {
		s.reg.Add(MetricEvictions, 1)
	})
	s.group.init()
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		if o == nil {
			return spec.Run(ctx)
		}
		return spec.Run(ctx, solarcore.WithObserver(o))
	}
	// Warm-start the memory cache from the durable layer: most recent
	// records are inserted last so the LRU's recency order matches the
	// store's. Payloads were CRC-verified by Recent; a cold or empty
	// store simply starts the cache empty, exactly as before. Event-tail
	// records (the "-ev" companions of /v1/stream replay) are JSONL
	// streams, not result bodies — they stay on disk only.
	if cfg.Store != nil {
		recent := cfg.Store.Recent(cfg.CacheEntries)
		for i := len(recent) - 1; i >= 0; i-- {
			if strings.HasSuffix(recent[i].Key, evSuffix) {
				continue
			}
			s.cache.Put(recent[i].Key, recent[i].Body)
		}
	}
	s.mux = http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.Handle(pattern, edge.Instrument(h, cfg.Clock, cfg.AccessLog, s.countRequest, s.countPanic))
	}
	handle("POST /v1/run", s.handleRun)
	handle("POST /v1/sweep", s.handleSweep)
	handle("GET /v1/stream", s.handleStream)
	handle("GET /v1/policies", s.handlePolicies)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the route table, panic-contained and instrumented.
func (s *Server) Handler() http.Handler { return s.mux }

// countRequest and countPanic are the single registration sites of
// their counters (solarvet metricname rule): the middleware reports
// every completed request, and both recover sites — the middleware and
// the sweep's per-cell recover — report contained panics.
func (s *Server) countRequest() { s.reg.Add(MetricRequests, 1) }
func (s *Server) countPanic()   { s.reg.Add(MetricPanics, 1) }

// Metrics snapshots the server's registry.
func (s *Server) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// StartDrain moves the server into its draining state: /healthz starts
// failing with 503 (so load balancers stop routing here) and new
// simulations are refused; in-flight ones keep running. It is the first
// step of the shutdown state machine (DESIGN.md §12).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close cancels every in-flight simulation and flushes the access log.
// Call it after the HTTP listener has drained.
func (s *Server) Close() error {
	s.cancel()
	if s.cfg.AccessLog != nil {
		return s.cfg.AccessLog.Flush()
	}
	return nil
}

// acquire claims a worker slot, waiting in the bounded queue when the
// pool is busy. It fails fast with ErrOverloaded once MaxQueue requests
// are already waiting, and with the context error when the waiter's
// request dies first.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.reg.Add(MetricRejected, 1)
		return ErrOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: queue wait: %w", ctx.Err())
	case <-s.baseCtx.Done():
		return ErrDraining
	}
}

func (s *Server) release() { <-s.sem }

// timeout resolves the effective run deadline: the server default,
// shortened (never extended beyond MaxTimeout) by a client-requested
// timeout in milliseconds.
func (s *Server) timeout(requestedMs int) time.Duration {
	d := s.cfg.RunTimeout
	if requestedMs > 0 {
		d = time.Duration(requestedMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// Result serves one validated spec through the cache, the coalescer and
// the bounded worker pool, returning the marshaled DayResult JSON and
// its cache disposition (obs.CacheHit, obs.CacheCoalesced, obs.CacheMiss).
// ctx is the caller's request context: it bounds queue waiting and
// coalesced waiting, while the simulation itself runs under the server's
// base context plus the effective deadline — so one impatient client
// cannot cancel a run other clients (or the cache) still want.
func (s *Server) Result(ctx context.Context, spec solarcore.RunSpec, timeoutMs int) ([]byte, string, error) {
	return s.result(ctx, spec, timeoutMs, nil)
}

// result is Result plus the streaming lead path: a non-nil observer
// marks the caller as a stream feeder that needs the run's events, not
// just its bytes — so the cache and durable-store replay shortcuts are
// skipped (they have no events to give) and the simulation always runs,
// with o attached, on the same singleflight key as /v1/run. A feeder
// that loses the flight race joins a leader without its observer; the
// disposition obs.CacheCoalesced tells it to retry (stream.go).
func (s *Server) result(ctx context.Context, spec solarcore.RunSpec, timeoutMs int, o obs.Observer) ([]byte, string, error) {
	key := spec.Hash()
	if o == nil {
		if body, ok := s.cache.Get(key); ok {
			s.reg.Add(MetricCacheHits, 1)
			return body, obs.CacheHit, nil
		}
	}
	s.reg.Add(MetricCacheMisses, 1)
	fromStore := false // leader-only; read after Do when shared is false
	body, shared, err := s.group.Do(ctx, key, func() ([]byte, error) {
		if s.draining.Load() {
			return nil, ErrDraining
		}
		// Durable layer: a verified disk record replays byte-identically
		// without burning a worker slot. Coalesced followers share the
		// read like they would share a simulation.
		if o == nil && s.cfg.Store != nil {
			if b, ok := s.cfg.Store.Get(key); ok {
				s.cache.Put(key, b)
				fromStore = true
				return b, nil
			}
		}
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		runCtx, cancel := context.WithTimeout(s.baseCtx, s.timeout(timeoutMs))
		defer cancel()
		s.reg.Set(MetricInflight, float64(s.inflight.Add(1)))
		defer func() { s.reg.Set(MetricInflight, float64(s.inflight.Add(-1))) }()
		start := s.cfg.Clock()
		res, err := s.runSpec(runCtx, spec, o)
		if err != nil {
			return nil, err
		}
		s.reg.Observe(MetricRunMs, s.cfg.Clock().Sub(start).Seconds()*1000)
		s.reg.Add(MetricRuns, 1)
		out, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("serve: marshal result: %w", err)
		}
		s.cache.Put(key, out)
		if s.cfg.Store != nil {
			// Best effort: a full or read-only disk must not fail the
			// request; the store counts store_put_errors_total itself.
			_ = s.cfg.Store.Put(key, out)
		}
		return out, nil
	})
	src := obs.CacheMiss
	switch {
	case shared:
		s.reg.Add(MetricCoalesced, 1)
		src = obs.CacheCoalesced
	case fromStore:
		// A durable-layer replay is a hit from the client's point of
		// view: byte-identical bytes, no simulation ran.
		src = obs.CacheHit
	}
	return body, src, err
}
