package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
)

// fastSpec is a cheap-but-real simulation spec for end-to-end tests.
var fastSpec = solarcore.RunSpec{Site: "AZ", Season: "Jul", Mix: "HM2", StepMin: 8}

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

// postJSON sends body to path and returns the response with its body read.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// fakeResult is what the stub runner returns; the marshaled form is what
// handlers serve.
func fakeResult(label string) *solarcore.DayResult {
	return &solarcore.DayResult{Label: label}
}

// TestHandlerValidation table-tests the 4xx surface of every route:
// malformed JSON, unknown fields, unknown policies (wrapping
// solarcore.ErrUnknownPolicy at the validation layer), oversized sweeps
// and wrong methods must all fail loudly before any simulation starts.
func TestHandlerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweep: 2})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"malformed json", "POST", "/v1/run", "{not json", http.StatusBadRequest, "bad request body"},
		{"trailing data", "POST", "/v1/run", "{}{}", http.StatusBadRequest, "trailing data"},
		{"unknown field", "POST", "/v1/run", `{"sight":"AZ"}`, http.StatusBadRequest, "sight"},
		{"unknown policy", "POST", "/v1/run", `{"policy":"MPPT&Bogus"}`, http.StatusBadRequest, "unknown policy"},
		{"unknown site", "POST", "/v1/run", `{"site":"XX"}`, http.StatusBadRequest, "site"},
		{"negative day", "POST", "/v1/run", `{"day":-1}`, http.StatusBadRequest, "day"},
		{"both baselines", "POST", "/v1/run", `{"fixed_w":50,"battery_eff":0.5}`, http.StatusBadRequest, "at most one"},
		{"wrong method run", "GET", "/v1/run", "", http.StatusMethodNotAllowed, ""},
		{"wrong method policies", "POST", "/v1/policies", "{}", http.StatusMethodNotAllowed, ""},
		{"empty sweep", "POST", "/v1/sweep", `{"runs":[]}`, http.StatusBadRequest, "empty sweep"},
		{"oversized sweep", "POST", "/v1/sweep", `{"runs":[{},{},{}]}`, http.StatusBadRequest, "exceeds the limit"},
		{"sweep bad item", "POST", "/v1/sweep", `{"runs":[{},{"policy":"nope"}]}`, http.StatusBadRequest, "runs[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, data)
			}
			if tc.wantSubstr != "" && !strings.Contains(string(data), tc.wantSubstr) {
				t.Errorf("body %q does not mention %q", data, tc.wantSubstr)
			}
		})
	}
}

// TestWireVersionGate pins the mixed-fleet contract: v0 (absent) and v1
// are served, anything else is a 400 with the unsupported_version code,
// for both the request envelope and individual sweep cells.
func TestWireVersionGate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		return fakeResult("versioned"), nil
	}
	for _, body := range []string{`{"step_min":8}`, `{"v":1,"step_min":8}`} {
		if resp, data := postJSON(t, ts, "/v1/run", body); resp.StatusCode != http.StatusOK {
			t.Errorf("run %s = %d, want 200; body: %s", body, resp.StatusCode, data)
		}
	}
	cases := []struct{ path, body string }{
		{"/v1/run", `{"v":9,"step_min":8}`},
		{"/v1/sweep", `{"v":9,"runs":[{"step_min":8}]}`},
		{"/v1/sweep", `{"runs":[{"v":9,"step_min":8}]}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		apiErr := client.DecodeError(resp.StatusCode, resp.Header, data)
		if apiErr.Code != client.CodeUnsupportedVersion {
			t.Errorf("POST %s %s code = %q, want %q; body: %s",
				tc.path, tc.body, apiErr.Code, client.CodeUnsupportedVersion, data)
		}
	}
}

// TestErrorEnvelopeShape pins the unified error contract: every non-2xx
// body decodes through the single client decoder with a machine code,
// and retryable sheds mirror Retry-After into retry_after_ms.
func TestErrorEnvelopeShape(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	resp, data := postJSON(t, ts, "/v1/run", `{"policy":"MPPT&Bogus"}`)
	apiErr := client.DecodeError(resp.StatusCode, resp.Header, data)
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != client.CodeBadRequest {
		t.Errorf("validation error = %d %q, want 400 %q", resp.StatusCode, apiErr.Code, client.CodeBadRequest)
	}
	if !strings.Contains(apiErr.Message, "unknown policy") {
		t.Errorf("message %q does not carry the cause", apiErr.Message)
	}

	s.StartDrain()
	resp, data = postJSON(t, ts, "/v1/run", `{"step_min":8}`)
	apiErr = client.DecodeError(resp.StatusCode, resp.Header, data)
	if resp.StatusCode != http.StatusServiceUnavailable || apiErr.Code != client.CodeDraining {
		t.Errorf("draining error = %d %q, want 503 %q", resp.StatusCode, apiErr.Code, client.CodeDraining)
	}
	if apiErr.RetryAfter != 5*time.Second {
		t.Errorf("draining RetryAfter = %v, want 5s (mirrored retry_after_ms)", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Error("draining error not Temporary")
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := get(t, ts, "/v1/policies")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body: %s", resp.StatusCode, data)
	}
	var pr client.PoliciesResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := solarcore.Policies()
	if len(pr.Policies) != len(want) {
		t.Fatalf("policies = %v, want %v", pr.Policies, want)
	}
	for i := range want {
		if pr.Policies[i] != want[i] {
			t.Fatalf("policies = %v, want %v", pr.Policies, want)
		}
	}
}

func TestMetricsEndpointExposesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	get(t, ts, "/healthz") // generate at least one counted request
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if snap.Counters[MetricRequests] < 1 {
		t.Errorf("%s = %g, want >= 1", MetricRequests, snap.Counters[MetricRequests])
	}
}

// TestDrainingStateMachine checks the StartDrain contract: /healthz flips
// to 503, new runs and sweeps are refused with Retry-After, and Draining
// reports the state.
func TestDrainingStateMachine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d", resp.StatusCode)
	}
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	resp, data := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Errorf("healthz after drain = %d %q, want 503 draining", resp.StatusCode, data)
	}
	for _, path := range []string{"/v1/run", "/v1/sweep"} {
		resp, _ := postJSON(t, ts, path, "{}")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s while draining = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s while draining: no Retry-After header", path)
		}
	}
}

// TestCoalescingSharesOneRun pins the coalescer's core guarantee: N
// concurrent identical requests cost exactly one simulation, every
// response is byte-identical, and the metrics account one run plus N-1
// coalesced joins. The stub runner blocks until released, so the herd is
// provably concurrent; run under -race this is the coalescer's
// determinism gate.
func TestCoalescingSharesOneRun(t *testing.T) {
	const followers = 8
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		calls.Add(1)
		close(entered)
		<-release
		return fakeResult("shared"), nil
	}

	body, err := json.Marshal(fastSpec)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		cache  string
		data   []byte
	}
	replies := make(chan reply, followers+1)
	fire := func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			replies <- reply{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		replies <- reply{resp.StatusCode, resp.Header.Get(client.HeaderCache), data}
	}

	go fire() // the leader
	<-entered // leader is inside the stub; the flight key is registered
	for range followers {
		go fire()
	}
	// Wait until every follower has passed the cache-miss check and is
	// headed into the flight group, then give the scheduler a beat to park
	// them all on the shared flight before releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[MetricCacheMisses] < followers+1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never arrived: misses = %g", reg.Snapshot().Counters[MetricCacheMisses])
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)

	var first []byte
	var coalesced int
	for i := 0; i < followers+1; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d: %s", i, r.status, r.data)
		}
		if first == nil {
			first = r.data
		} else if !bytes.Equal(first, r.data) {
			t.Errorf("reply %d body diverges from the first", i)
		}
		if r.cache == obs.CacheCoalesced {
			coalesced++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("stub runner ran %d times, want exactly 1", got)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricRuns] != 1 {
		t.Errorf("%s = %g, want 1", MetricRuns, snap.Counters[MetricRuns])
	}
	if coalesced != followers || snap.Counters[MetricCoalesced] != followers {
		t.Errorf("coalesced: header %d, metric %g, want %d both",
			coalesced, snap.Counters[MetricCoalesced], followers)
	}
	// A repeat is now a pure cache hit and replays the identical bytes.
	resp, data := postJSON(t, ts, "/v1/run", string(body))
	if resp.Header.Get(client.HeaderCache) != obs.CacheHit {
		t.Errorf("repeat X-Cache = %q, want %q", resp.Header.Get(client.HeaderCache), obs.CacheHit)
	}
	if !bytes.Equal(data, first) {
		t.Error("cached replay is not byte-identical to the first response")
	}
}

// TestBackpressureRejectsBeyondQueue fills one worker slot and the
// one-deep wait queue, then checks the next distinct request is shed
// immediately with 429 + Retry-After instead of waiting.
func TestBackpressureRejectsBeyondQueue(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, Registry: reg})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		entered <- struct{}{}
		<-release
		return fakeResult("slow"), nil
	}
	specBody := func(day int) string {
		b, err := json.Marshal(solarcore.RunSpec{Day: day, StepMin: 8})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	done := make(chan int, 2)
	fire := func(day int) {
		resp, _ := postJSON(t, ts, "/v1/run", specBody(day))
		done <- resp.StatusCode
	}
	go fire(0)
	<-entered // request 0 holds the only worker slot
	go fire(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < 1 { // request 1 has claimed the only queue slot
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := postJSON(t, ts, "/v1/run", specBody(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429; body: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := reg.Snapshot().Counters[MetricRejected]; got != 1 {
		t.Errorf("%s = %g, want 1", MetricRejected, got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("queued request finished with %d, want 200", code)
		}
	}
}

// TestRunDeadlineMapsTo504 sends timeout_ms=20 against a stub that honors
// ctx; the blown run deadline must surface as 504, not hang.
func TestRunDeadlineMapsTo504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, data := postJSON(t, ts, "/v1/run", `{"step_min":8,"timeout_ms":20}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, data)
	}
}

// TestHugeTimeoutClampsToTwiceRunTimeout sends timeout_ms values whose
// conversion to time.Duration overflows; each must clamp to 2×RunTimeout
// and serve, not start with an already-passed deadline.
func TestHugeTimeoutClampsToTwiceRunTimeout(t *testing.T) {
	const runTimeout = time.Second
	s, ts := newTestServer(t, Config{RunTimeout: runTimeout})
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > 2*runTimeout {
			return nil, fmt.Errorf("deadline %v past the clamp", dl)
		}
		return fakeResult(fmt.Sprintf("day-%d", spec.Day)), nil
	}
	for day, ms := range []int64{9223372036855, 1 << 62} {
		body := fmt.Sprintf(`{"day":%d,"step_min":8,"timeout_ms":%d}`, day, ms)
		if resp, data := postJSON(t, ts, "/v1/run", body); resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms=%d: status = %d, want 200; body: %s", ms, resp.StatusCode, data)
		}
	}
}

// TestCacheEvictionOrderThroughServer drives a 2-entry result cache with
// three distinct specs: the oldest untouched spec must be the one evicted
// and re-simulated, while the recently-read one replays from cache.
func TestCacheEvictionOrderThroughServer(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{CacheEntries: 2, Registry: reg})
	var calls atomic.Int64
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		calls.Add(1)
		return fakeResult(fmt.Sprintf("day-%d", spec.Day)), nil
	}
	run := func(day int) *http.Response {
		b, err := json.Marshal(solarcore.RunSpec{Day: day, StepMin: 8})
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := postJSON(t, ts, "/v1/run", string(b))
		return resp
	}
	run(0)                                                     // cache: [0]
	run(1)                                                     // cache: [1 0]
	if run(0).Header.Get(client.HeaderCache) != obs.CacheHit { // promote 0; cache: [0 1]
		t.Fatal("day 0 not cached after first run")
	}
	run(2) // evicts 1, the least recently used; cache: [2 0]
	if got := reg.Snapshot().Counters[MetricEvictions]; got != 1 {
		t.Errorf("%s = %g, want 1", MetricEvictions, got)
	}
	if c := run(0).Header.Get(client.HeaderCache); c != obs.CacheHit {
		t.Errorf("day 0 disposition = %q, want hit (promotion must protect it)", c)
	}
	if c := run(1).Header.Get(client.HeaderCache); c != obs.CacheMiss {
		t.Errorf("day 1 disposition = %q, want miss (it was the LRU victim)", c)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("stub ran %d times, want 4 (days 0, 1, 2 and re-run of 1)", got)
	}
}

// TestPanicContainment checks a panicking run answers 500, the server
// keeps serving, and the flight entry is not leaked (a retry of the same
// key runs fresh instead of hanging).
func TestPanicContainment(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})
	var calls atomic.Int64
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		if calls.Add(1) == 1 {
			panic("synthetic run failure")
		}
		return fakeResult("recovered"), nil
	}
	resp, _ := postJSON(t, ts, "/v1/run", `{"step_min":8}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run status = %d, want 500", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters[MetricPanics]; got != 1 {
		t.Errorf("%s = %g, want 1", MetricPanics, got)
	}
	resp, data := postJSON(t, ts, "/v1/run", `{"step_min":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic = %d, want 200; body: %s", resp.StatusCode, data)
	}
}

// TestSweepFansOutAndReportsPerItem checks /v1/sweep returns results in
// request order with hashes and cache dispositions, and that a duplicate
// cell inside one sweep is served from cache or coalescing, not re-run.
func TestSweepFansOutAndReportsPerItem(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	var calls atomic.Int64
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		calls.Add(1)
		return fakeResult(fmt.Sprintf("day-%d", spec.Day)), nil
	}
	resp, data := postJSON(t, ts, "/v1/sweep",
		`{"runs":[{"day":0,"step_min":8},{"day":1,"step_min":8},{"day":0,"step_min":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body: %s", resp.StatusCode, data)
	}
	var sr client.SweepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(sr.Results))
	}
	want0 := solarcore.RunSpec{Day: 0, StepMin: 8}.Hash()
	want1 := solarcore.RunSpec{Day: 1, StepMin: 8}.Hash()
	for i, wantHash := range []string{want0, want1, want0} {
		item := sr.Results[i]
		if item.Error != "" {
			t.Fatalf("results[%d] failed: %s", i, item.Error)
		}
		if item.Hash != wantHash {
			t.Errorf("results[%d].Hash = %s, want %s", i, item.Hash, wantHash)
		}
		if len(item.Result) == 0 {
			t.Errorf("results[%d] has no result payload", i)
		}
	}
	if !bytes.Equal(sr.Results[0].Result, sr.Results[2].Result) {
		t.Error("duplicate sweep cells returned different payloads")
	}
	if got := calls.Load(); got > 2 {
		t.Errorf("stub ran %d times for 2 distinct cells, want <= 2", got)
	}
}

// TestAccessLogRecordsRequests checks the middleware appends one valid
// JSONL access event per request, with the cache disposition carried
// through.
func TestAccessLogRecordsRequests(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	sink := obs.NewJSONLSink(&lockedWriter{w: &buf, mu: &mu})
	s, ts := newTestServer(t, Config{AccessLog: sink})
	s.runSpec = func(ctx context.Context, spec solarcore.RunSpec, _ obs.Observer) (*solarcore.DayResult, error) {
		return fakeResult("logged"), nil
	}
	postJSON(t, ts, "/v1/run", `{"step_min":8}`)
	get(t, ts, "/healthz")
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	mu.Unlock()
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	var runEv, healthEv *obs.AccessEvent
	for _, ev := range events {
		if ev.Type != obs.TypeAccess || ev.Access == nil {
			continue
		}
		switch ev.Access.Path {
		case "/v1/run":
			runEv = ev.Access
		case "/healthz":
			healthEv = ev.Access
		}
	}
	if runEv == nil || healthEv == nil {
		t.Fatalf("missing access events; got %d events", len(events))
	}
	if runEv.Method != http.MethodPost || runEv.Status != http.StatusOK || runEv.Cache != obs.CacheMiss {
		t.Errorf("run access event = %+v", runEv)
	}
	if healthEv.Bytes == 0 {
		t.Errorf("healthz access event recorded zero bytes: %+v", healthEv)
	}
}

// lockedWriter serializes writes for the race detector: the sink is
// called from server goroutines while the test reads the buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestEndToEndMatchesDirectRunner is the acceptance gate: a DayResult
// served over HTTP must be byte-identical (same marshaler, same data) to
// the result of calling the Runner in-process with the same spec.
func TestEndToEndMatchesDirectRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation over HTTP")
	}
	_, ts := newTestServer(t, Config{})
	specJSON, err := json.Marshal(fastSpec)
	if err != nil {
		t.Fatal(err)
	}
	resp, served := postJSON(t, ts, "/v1/run", string(specJSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body: %s", resp.StatusCode, served)
	}
	if c := resp.Header.Get(client.HeaderCache); c != obs.CacheMiss {
		t.Errorf("first request X-Cache = %q, want %q", c, obs.CacheMiss)
	}

	direct, err := fastSpec.Run(context.Background())
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Errorf("served result diverges from the direct Runner call:\nserved: %.200s\ndirect: %.200s", served, want)
	}

	// The served payload must also decode into an equivalent DayResult.
	var decoded solarcore.DayResult
	if err := json.Unmarshal(served, &decoded); err != nil {
		t.Fatalf("served payload does not decode: %v", err)
	}
	if decoded.Policy != direct.Policy || decoded.Mix != direct.Mix {
		t.Errorf("decoded result = policy %q mix %q, direct = policy %q mix %q",
			decoded.Policy, decoded.Mix, direct.Policy, direct.Mix)
	}

	resp2, served2 := postJSON(t, ts, "/v1/run", string(specJSON))
	if c := resp2.Header.Get(client.HeaderCache); c != obs.CacheHit {
		t.Errorf("repeat X-Cache = %q, want %q", c, obs.CacheHit)
	}
	if !bytes.Equal(served, served2) {
		t.Error("cached replay diverges from the original response")
	}
}
