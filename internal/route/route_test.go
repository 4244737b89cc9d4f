package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
)

// fakeNode is a scriptable stand-in for one solard backend: per-node
// delay, injected failure status and health answer are all settable
// mid-test through atomics.
type fakeNode struct {
	ts        *httptest.Server
	runs      atomic.Int32 // /v1/run requests received
	canceled  atomic.Int32 // /v1/run requests whose context died mid-delay
	delayNs   atomic.Int64
	failCode  atomic.Int32 // non-zero: answer /v1/run with this status
	healthyOK atomic.Bool  // /healthz answer
	badSum    atomic.Bool  // declare a wrong X-Body-Sum on /v1/run
}

func (f *fakeNode) url() string { return f.ts.URL }

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		f.runs.Add(1)
		// Drain the body: the HTTP/1 server only watches for a client
		// abort once the request body is consumed, and the cancellation
		// tests depend on that watch.
		_, _ = io.Copy(io.Discard, r.Body)
		if d := time.Duration(f.delayNs.Load()); d > 0 {
			select {
			case <-r.Context().Done():
				f.canceled.Add(1)
				return
			case <-time.After(d):
			}
		}
		if code := int(f.failCode.Load()); code != 0 {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			client.WriteError(w, code, "injected", "injected failure")
			return
		}
		w.Header().Set(client.HeaderCache, obs.CacheHit)
		w.Header().Set("Content-Type", "application/json")
		if f.badSum.Load() {
			// A sum that cannot match any body: simulated in-flight
			// corruption the typed client must catch.
			w.Header().Set(client.HeaderBodySum, "crc32c:00000000")
		}
		fmt.Fprintf(w, `{"served_by":%q}`, f.ts.URL)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := obs.NewRegistry()
		reg.Add("serve_runs_total", 7)
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !f.healthyOK.Load() {
			client.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, "draining")
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	return mux
}

// newFleet starts n fake nodes and returns them with their base URLs.
func newFleet(t *testing.T, n int) ([]*fakeNode, []string) {
	t.Helper()
	nodes := make([]*fakeNode, n)
	urls := make([]string, n)
	for i := range nodes {
		f := &fakeNode{}
		f.healthyOK.Store(true)
		f.ts = httptest.NewServer(f.handler())
		t.Cleanup(f.ts.Close)
		nodes[i] = f
		urls[i] = f.ts.URL
	}
	return nodes, urls
}

func newTestRouter(t *testing.T, urls []string, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Backends:    urls,
		Clock:       time.Now,
		HedgeDelay:  time.Second, // effectively off unless a test lowers it
		BackoffBase: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// spec returns a distinct valid run spec per index.
func spec(i int) client.RunRequest {
	return client.RunRequest{V: client.WireVersion, RunSpec: solarcore.RunSpec{Day: i, StepMin: 8}}
}

// postRun sends one run request through the router's handler.
func postRun(t *testing.T, rt *Router, req client.RunRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rec
}

// ownerOrder maps the ring's candidate order for req onto the fleet.
func ownerOrder(rt *Router, nodes []*fakeNode, req client.RunRequest) []*fakeNode {
	idxs := rt.ring.owners(req.Hash(), len(nodes))
	out := make([]*fakeNode, len(idxs))
	for i, idx := range idxs {
		for _, n := range nodes {
			if n.url() == rt.backends[idx].name {
				out[i] = n
			}
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHedgeCancelsLoser(t *testing.T) {
	nodes, urls := newFleet(t, 2)
	rt := newTestRouter(t, urls, func(c *Config) { c.HedgeDelay = 20 * time.Millisecond })
	req := spec(1)
	order := ownerOrder(rt, nodes, req)
	order[0].delayNs.Store(int64(3 * time.Second)) // primary stalls

	rec := postRun(t, rt, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(client.HeaderRoute); got != client.RouteHedged {
		t.Errorf("%s = %q, want %q", client.HeaderRoute, got, client.RouteHedged)
	}
	if got := rec.Header().Get(client.HeaderBackend); got != order[1].url() {
		t.Errorf("%s = %q, want hedge target %q", client.HeaderBackend, got, order[1].url())
	}
	if !strings.Contains(rec.Body.String(), order[1].url()) {
		t.Errorf("body %s not served by hedge target", rec.Body)
	}
	// The stalled primary's request context must die with the fetch.
	waitFor(t, "loser cancellation", func() bool { return order[0].canceled.Load() == 1 })
	snap := rt.Metrics()
	if snap.Counters[MetricHedges] != 1 || snap.Counters[MetricHedgeWins] != 1 {
		t.Errorf("hedge counters = %v/%v, want 1/1",
			snap.Counters[MetricHedges], snap.Counters[MetricHedgeWins])
	}
}

func TestRetryFailsOverOn5xx(t *testing.T) {
	nodes, urls := newFleet(t, 2)
	rt := newTestRouter(t, urls, nil)
	req := spec(2)
	order := ownerOrder(rt, nodes, req)
	order[0].failCode.Store(http.StatusServiceUnavailable)

	rec := postRun(t, rt, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(client.HeaderRoute); got != client.RouteRetried {
		t.Errorf("%s = %q, want %q", client.HeaderRoute, got, client.RouteRetried)
	}
	if got := rec.Header().Get(client.HeaderBackend); got != order[1].url() {
		t.Errorf("%s = %q, want failover target %q", client.HeaderBackend, got, order[1].url())
	}
	if n := rt.Metrics().Counters[MetricRetries]; n != 1 {
		t.Errorf("%s = %v, want 1", MetricRetries, n)
	}
}

func TestDeterministicErrorDoesNotFailOver(t *testing.T) {
	nodes, urls := newFleet(t, 2)
	rt := newTestRouter(t, urls, nil)
	req := spec(3)
	order := ownerOrder(rt, nodes, req)
	order[0].failCode.Store(http.StatusBadRequest)

	rec := postRun(t, rt, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 passed through (body %s)", rec.Code, rec.Body)
	}
	e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes())
	if e.Code != "injected" {
		t.Errorf("error code = %q, want upstream's %q", e.Code, "injected")
	}
	if n := order[1].runs.Load(); n != 0 {
		t.Errorf("secondary saw %d runs, want 0 (400 must not fail over)", n)
	}
}

func TestEjectionAndReadmission(t *testing.T) {
	nodes, urls := newFleet(t, 2)
	rt := newTestRouter(t, urls, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		c.FailThreshold = 2
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)

	// Wait on the gauge, not Healthy(): the prober flips the health bit
	// first and mirrors it into the gauge last, so the gauge settling
	// means the whole ejection (bit + counter) is visible.
	nodes[0].healthyOK.Store(false)
	waitFor(t, "ejection", func() bool {
		return rt.Metrics().Gauges[MetricBackendsHealthy] == 1
	})
	if rt.Healthy() != 1 {
		t.Errorf("Healthy() = %d, want 1", rt.Healthy())
	}
	if n := rt.Metrics().Counters[MetricEjections]; n != 1 {
		t.Errorf("%s = %v, want 1", MetricEjections, n)
	}
	if g := rt.Metrics().Gauges[MetricBackendsHealthy]; g != 1 {
		t.Errorf("%s gauge = %v, want 1", MetricBackendsHealthy, g)
	}

	// Keys whose primary is ejected reroute to the survivor.
	var survivor *fakeNode
	for _, n := range nodes {
		if n.healthyOK.Load() {
			survivor = n
		}
	}
	for i := 0; i < 8; i++ {
		rec := postRun(t, rt, spec(100+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("run %d during ejection: status %d body %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(client.HeaderBackend); got != survivor.url() {
			t.Errorf("run %d served by %q, want survivor %q", i, got, survivor.url())
		}
	}

	nodes[0].healthyOK.Store(true)
	waitFor(t, "re-admission", func() bool {
		return rt.Metrics().Gauges[MetricBackendsHealthy] == 2
	})
	if n := rt.Metrics().Counters[MetricReadmissions]; n != 1 {
		t.Errorf("%s = %v, want 1", MetricReadmissions, n)
	}
}

func TestSweepFanOutPreservesOrder(t *testing.T) {
	nodes, urls := newFleet(t, 3)
	rt := newTestRouter(t, urls, nil)

	const cells = 12
	sweep := client.SweepRequest{V: client.WireVersion}
	for i := 0; i < cells; i++ {
		sweep.Runs = append(sweep.Runs, spec(i))
	}
	body, _ := json.Marshal(sweep)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", rec.Code, rec.Body)
	}
	var resp client.SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Results) != cells {
		t.Fatalf("got %d results, want %d", len(resp.Results), cells)
	}
	for i, item := range resp.Results {
		if item.Error != "" {
			t.Fatalf("cell %d failed: %s", i, item.Error)
		}
		if want := sweep.Runs[i].Hash(); item.Hash != want {
			t.Errorf("cell %d hash %q out of order (want %q)", i, item.Hash, want)
		}
		// Every cell must have been served by its ring owner.
		owner := ownerOrder(rt, nodes, sweep.Runs[i])[0]
		if !strings.Contains(string(item.Result), owner.url()) {
			t.Errorf("cell %d result %s not from owner %s", i, item.Result, owner.url())
		}
	}
	// A 12-cell sweep over 3 nodes must touch more than one node.
	touched := 0
	for _, n := range nodes {
		if n.runs.Load() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("sweep touched %d nodes, want >= 2", touched)
	}
}

func TestWireVersionRejected(t *testing.T) {
	_, urls := newFleet(t, 1)
	rt := newTestRouter(t, urls, nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"v":9,"step_min":8}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes()); e.Code != client.CodeUnsupportedVersion {
		t.Errorf("code = %q, want %q", e.Code, client.CodeUnsupportedVersion)
	}
}

func TestNoHealthyBackends(t *testing.T) {
	_, urls := newFleet(t, 1)
	rt := newTestRouter(t, urls, nil)
	rt.backends[0].healthy.Store(false)

	rec := postRun(t, rt, spec(4))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("run status = %d, want 503", rec.Code)
	}
	e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes())
	if e.Code != client.CodeNoBackends {
		t.Errorf("code = %q, want %q", e.Code, client.CodeNoBackends)
	}
	if e.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", e.RetryAfter)
	}

	hrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d, want 503", hrec.Code)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	_, urls := newFleet(t, 1)
	rt := newTestRouter(t, urls, nil)
	rt.StartDrain()
	rec := postRun(t, rt, spec(5))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes()); e.Code != client.CodeDraining {
		t.Errorf("code = %q, want %q", e.Code, client.CodeDraining)
	}
}

func TestMetricsMergeAcrossFleet(t *testing.T) {
	_, urls := newFleet(t, 3)
	rt := newTestRouter(t, urls, nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Every fake reports serve_runs_total=7; the merge must sum them.
	if got := snap.Counters["serve_runs_total"]; got != 21 {
		t.Errorf("merged serve_runs_total = %v, want 21", got)
	}
	if snap.Gauges[MetricBackendsHealthy] != 3 {
		t.Errorf("gauge %s = %v, want 3", MetricBackendsHealthy, snap.Gauges[MetricBackendsHealthy])
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("New with duplicate backends succeeded")
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("New with empty backend succeeded")
	}
}

// TestProbeJitterBounds pins the jitter contract: every drawn period
// stays inside ProbeInterval·[1−j, 1+j], the draw is deterministic in
// the seed, and a negative jitter pins the period exactly.
func TestProbeJitterBounds(t *testing.T) {
	_, urls := newFleet(t, 1)
	const interval = 100 * time.Millisecond
	rt := newTestRouter(t, urls, func(c *Config) {
		c.ProbeInterval = interval
		c.ProbeJitter = 0.2
		c.Seed = 42
	})
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	distinct := map[time.Duration]bool{}
	var first []time.Duration
	for i := 0; i < 200; i++ {
		d := rt.nextProbeDelay()
		if d < lo || d > hi {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, d, lo, hi)
		}
		distinct[d] = true
		first = append(first, d)
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct periods in 200 draws; jitter is not spreading", len(distinct))
	}

	// Same seed, same sequence: restarts behave reproducibly.
	rt2 := newTestRouter(t, urls, func(c *Config) {
		c.ProbeInterval = interval
		c.ProbeJitter = 0.2
		c.Seed = 42
	})
	for i, want := range first[:50] {
		if got := rt2.nextProbeDelay(); got != want {
			t.Fatalf("draw %d = %v, want %v (seed determinism)", i, got, want)
		}
	}

	// Negative jitter disables spreading (tests pin exact cadence).
	rt3 := newTestRouter(t, urls, func(c *Config) {
		c.ProbeInterval = interval
		c.ProbeJitter = -1
	})
	for i := 0; i < 10; i++ {
		if got := rt3.nextProbeDelay(); got != interval {
			t.Fatalf("pinned draw = %v, want exactly %v", got, interval)
		}
	}
}

// TestIntegrityFailureFailsOver pins the anti-corruption path end to
// end: a backend whose response body fails its checksum is treated as a
// transport failure and the request fails over to the next owner — the
// client never sees a corrupt 200.
func TestIntegrityFailureFailsOver(t *testing.T) {
	if !retryable(&client.IntegrityError{Got: "a", Want: "b"}) {
		t.Fatal("IntegrityError not retryable; fail-over would surface corrupt deliveries")
	}
	nodes, urls := newFleet(t, 2)
	rt := newTestRouter(t, urls, nil)
	req := spec(7)
	owners := ownerOrder(rt, nodes, req)
	owners[0].badSum.Store(true)

	rec := postRun(t, rt, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(client.HeaderRoute); got != client.RouteRetried {
		t.Errorf("%s = %q, want %q", client.HeaderRoute, got, client.RouteRetried)
	}
	if got := rec.Header().Get(client.HeaderBackend); got != owners[1].url() {
		t.Errorf("winning backend = %q, want the second owner %q", got, owners[1].url())
	}
	if err := client.CheckBodySum(rec.Header().Get(client.HeaderBodySum), rec.Body.Bytes()); err != nil {
		t.Errorf("gate response sum does not verify: %v", err)
	}
}

// TestSweepValidation pins the gate's /v1/sweep 400 surface to solard's
// (internal/serve TestHandlerValidation rows): the batch is rejected
// whole, before any cell is routed.
func TestSweepValidation(t *testing.T) {
	nodes, urls := newFleet(t, 1)
	rt := newTestRouter(t, urls, func(c *Config) { c.MaxSweep = 2 })
	cases := []struct {
		name, body string
		wantCode   string
		wantSubstr string
	}{
		{"empty sweep", `{"runs":[]}`, client.CodeBadRequest, "empty sweep"},
		{"oversized sweep", `{"runs":[{},{},{}]}`, client.CodeBadRequest, "exceeds the limit"},
		{"sweep bad item", `{"runs":[{},{"policy":"nope"}]}`, client.CodeBadRequest, "runs[1]"},
		{"sweep item version", `{"runs":[{},{"v":9}]}`, client.CodeUnsupportedVersion, "runs[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.wantSubstr) {
				t.Errorf("body %q does not mention %q", rec.Body, tc.wantSubstr)
			}
			if e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes()); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}
	if n := nodes[0].runs.Load(); n != 0 {
		t.Errorf("rejected sweeps reached the backend %d times, want 0", n)
	}
}

// panicTransport stands in for an upstream code path that panics on the
// handler goroutine.
type panicTransport struct{}

func (panicTransport) RoundTrip(*http.Request) (*http.Response, error) {
	panic("synthetic transport failure")
}

// TestPanicContainment checks a panicking handler answers a 500
// envelope, counts route_panics_total once, and the gate keeps serving.
func TestPanicContainment(t *testing.T) {
	_, urls := newFleet(t, 1)
	rt := newTestRouter(t, urls, func(c *Config) { c.HTTPClient = &http.Client{Transport: panicTransport{}} })
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/policies", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", rec.Code, rec.Body)
	}
	if e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes()); e.Code != client.CodeInternal {
		t.Errorf("code = %q, want %q", e.Code, client.CodeInternal)
	}
	if got := rt.Metrics().Counters[MetricPanics]; got != 1 {
		t.Errorf("%s = %v, want 1", MetricPanics, got)
	}
	hrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Errorf("healthz after a contained panic = %d, want 200", hrec.Code)
	}
}

// TestAccessLogCarriesBackendCache checks the gate's access log records
// one line per request with the backend's X-Cache disposition.
func TestAccessLogCarriesBackendCache(t *testing.T) {
	_, urls := newFleet(t, 1)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	rt := newTestRouter(t, urls, func(c *Config) { c.AccessLog = sink })
	if rec := postRun(t, rt, spec(6)); rec.Code != http.StatusOK {
		t.Fatalf("run status = %d: %s", rec.Code, rec.Body)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 1 || events[0].Access == nil {
		t.Fatalf("got %d events, want one access line", len(events))
	}
	ev := events[0].Access
	if ev.Method != http.MethodPost || ev.Path != "/v1/run" || ev.Status != http.StatusOK || ev.Cache != obs.CacheHit {
		t.Errorf("access event = %+v, want POST /v1/run 200 with the backend's %q", ev, obs.CacheHit)
	}
	if ev.Bytes == 0 {
		t.Errorf("access event recorded zero bytes: %+v", ev)
	}
}
