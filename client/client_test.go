package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"solarcore"
	"solarcore/internal/obs"
)

func TestCheckWireVersion(t *testing.T) {
	for _, v := range []int{0, WireVersion} {
		if err := CheckWireVersion(v); err != nil {
			t.Errorf("CheckWireVersion(%d) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{-1, 2, 99} {
		if err := CheckWireVersion(v); err == nil {
			t.Errorf("CheckWireVersion(%d) = nil, want error", v)
		}
	}
}

// TestWriteErrorDecodeErrorRoundTrip pins the envelope contract: one
// writer, one decoder, and the Retry-After header mirrored into
// retry_after_ms.
func TestWriteErrorDecodeErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("Retry-After", "2")
	WriteError(rec, http.StatusTooManyRequests, CodeOverloaded, "over capacity")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	e := DecodeError(rec.Code, rec.Header(), rec.Body.Bytes())
	if e.Status != http.StatusTooManyRequests || e.Code != CodeOverloaded ||
		e.Message != "over capacity" || e.RetryAfter != 2*time.Second {
		t.Errorf("decoded = %+v", e)
	}
	if !e.Temporary() {
		t.Error("429 not Temporary")
	}
	if !strings.Contains(e.Error(), CodeOverloaded) || !strings.Contains(e.Error(), "over capacity") {
		t.Errorf("Error() = %q", e.Error())
	}
}

// TestDecodeErrorFallbacks covers responses that do not carry the
// envelope (mux 405s, proxies): synthesized code, raw-body message,
// header-derived Retry-After.
func TestDecodeErrorFallbacks(t *testing.T) {
	h := http.Header{}
	h.Set("Retry-After", "3")
	e := DecodeError(http.StatusMethodNotAllowed, h, []byte("Method Not Allowed\n"))
	if e.Code != "http_405" || e.Message != "Method Not Allowed" {
		t.Errorf("fallback decode = %+v", e)
	}
	if e.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", e.RetryAfter)
	}
	if e.Temporary() {
		t.Error("405 reported Temporary")
	}
}

// TestTemporaryByStatus pins the full retryability table: server-side
// pressure and transport trouble are temporary, client mistakes are not.
func TestTemporaryByStatus(t *testing.T) {
	cases := map[int]bool{
		http.StatusBadRequest:            false,
		http.StatusNotFound:              false,
		http.StatusMethodNotAllowed:      false,
		http.StatusRequestEntityTooLarge: false,
		http.StatusTooManyRequests:       true,
		http.StatusInternalServerError:   true,
		http.StatusBadGateway:            true,
		http.StatusServiceUnavailable:    true,
		http.StatusGatewayTimeout:        true,
	}
	for status, want := range cases {
		e := &APIError{Status: status}
		if got := e.Temporary(); got != want {
			t.Errorf("Temporary(%d) = %t, want %t", status, got, want)
		}
	}
}

// decodeErrorCases are hostile and degenerate error responses with the
// decoding each must produce; TestDecodeErrorEdgeCases checks them and
// FuzzDecodeError seeds from them.
var decodeErrorCases = []struct {
	name      string
	status    int
	header    http.Header
	body      string
	wantCode  string
	wantMsg   string
	wantRetry time.Duration
}{
	{"empty body", 503, nil, "", "http_503", "", 0},
	{"malformed envelope", 500, nil, `{"error":{`, "http_500", `{"error":{`, 0},
	{"non-JSON 5xx", 502, nil, "<html>Bad Gateway</html>", "http_502", "<html>Bad Gateway</html>", 0},
	{"envelope without code", 500, nil, `{"error":{"message":"m"}}`, "http_500", `{"error":{"message":"m"}}`, 0},
	{"wrong-type retry field", 429, nil, `{"error":{"code":"overloaded","retry_after_ms":"soon"}}`,
		"http_429", `{"error":{"code":"overloaded","retry_after_ms":"soon"}}`, 0},
	{"negative retry", 429, nil, `{"error":{"code":"overloaded","retry_after_ms":-5000}}`,
		"overloaded", "", 0},
	{"overflowing retry", 429, nil,
		// 2^63/1e6 ≈ 9.22e12 ms is where Duration math would wrap; send more.
		`{"error":{"code":"overloaded","retry_after_ms":9300000000000}}`,
		"overloaded", "", 24 * time.Hour},
	{"capped retry", 429, nil,
		`{"error":{"code":"overloaded","retry_after_ms":` + strconv.Itoa(2*24*60*60*1000) + `}}`,
		"overloaded", "", 24 * time.Hour},
	{"huge Retry-After header", 503, http.Header{"Retry-After": []string{"99999999999999999"}},
		"", "", "", 24 * time.Hour},
}

// TestDecodeErrorEdgeCases covers the decoder against hostile and
// degenerate bodies: it must always produce a usable *APIError and a
// bounded, non-negative retry hint.
func TestDecodeErrorEdgeCases(t *testing.T) {
	for _, c := range decodeErrorCases {
		e := DecodeError(c.status, c.header, []byte(c.body))
		if e.Status != c.status {
			t.Errorf("%s: Status = %d", c.name, e.Status)
		}
		if c.wantCode != "" && e.Code != c.wantCode {
			t.Errorf("%s: Code = %q, want %q", c.name, e.Code, c.wantCode)
		}
		if c.wantMsg != "" && e.Message != c.wantMsg {
			t.Errorf("%s: Message = %q, want %q", c.name, e.Message, c.wantMsg)
		}
		if e.RetryAfter != c.wantRetry {
			t.Errorf("%s: RetryAfter = %v, want %v", c.name, e.RetryAfter, c.wantRetry)
		}
		if e.RetryAfter < 0 {
			t.Errorf("%s: negative RetryAfter %v", c.name, e.RetryAfter)
		}
	}
}

// FuzzDecodeError holds the error decoder, which solargate runs on every
// non-2xx backend body, to four properties for any status, Retry-After
// header and body: no input panics, the retry hint lies in [0, 24 h],
// the status is echoed, and the code is never empty.
func FuzzDecodeError(f *testing.F) {
	for _, c := range decodeErrorCases {
		f.Add(c.status, c.header.Get("Retry-After"), []byte(c.body))
	}
	f.Add(429, "3", []byte(`{"error":{"code":"","retry_after_ms":1}}`))
	f.Add(0, "-1", []byte(`{"error":{"code":"x","retry_after_ms":9223372036854775807}}`))
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		e := DecodeError(status, http.Header{"Retry-After": []string{retryAfter}}, body)
		if e.RetryAfter < 0 || e.RetryAfter > maxRetryAfter {
			t.Fatalf("RetryAfter = %v, outside [0, %v]", e.RetryAfter, maxRetryAfter)
		}
		if e.Status != status {
			t.Fatalf("Status = %d, want %d", e.Status, status)
		}
		if e.Code == "" {
			t.Fatal("empty Code")
		}
	})
}

func TestBodySumRoundTrip(t *testing.T) {
	body := []byte(`{"solar_wh":400.125}`)
	sum := BodySum(body)
	if !strings.HasPrefix(sum, "crc32c:") || len(sum) != len("crc32c:")+8 {
		t.Fatalf("BodySum = %q, want crc32c:<8 hex>", sum)
	}
	if err := CheckBodySum(sum, body); err != nil {
		t.Errorf("matching sum rejected: %v", err)
	}
	if err := CheckBodySum("", body); err != nil {
		t.Errorf("absent header rejected: %v", err)
	}
	if err := CheckBodySum("sha256:deadbeef", body); err != nil {
		t.Errorf("unknown algorithm rejected: %v", err)
	}
	mutated := append([]byte(nil), body...)
	mutated[5] ^= 0x01
	err := CheckBodySum(sum, mutated)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupt body passed: %v", err)
	}
	if !ie.Temporary() {
		t.Error("IntegrityError not Temporary; fail-over would not retry it")
	}
	if !strings.Contains(ie.Error(), ie.Want) {
		t.Errorf("Error() = %q omits the expected sum", ie.Error())
	}
}

// TestClientRejectsCorruptBody pins the end-to-end behavior: a 200 whose
// body does not match its X-Body-Sum surfaces as *IntegrityError, never
// as a successful RunResult.
func TestClientRejectsCorruptBody(t *testing.T) {
	good := []byte(`{"label":"intact"}`)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(HeaderBodySum, BodySum(good))
		_, _ = w.Write([]byte(`{"label":"corrupt"}`)) // same length, wrong bytes
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Run(context.Background(), RunRequest{})
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupt 200 returned err = %v, want *IntegrityError", err)
	}
}

// fakeServer implements just enough of the wire contract to exercise
// the Client: it records the last decoded run request and serves canned
// responses.
func fakeServer(t *testing.T) (*httptest.Server, *RunRequest) {
	t.Helper()
	var lastRun RunRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		if err := ReadJSON(w, r, &lastRun); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		if lastRun.Day == 429 {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, CodeOverloaded, "shed")
			return
		}
		w.Header().Set(HeaderCache, obs.CacheHit)
		w.Header().Set(HeaderRoute, RouteHedged)
		w.Header().Set(HeaderBackend, "b1")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"label":"fake"}`))
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if err := ReadJSON(w, r, &req); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		items := make([]SweepItem, len(req.Runs))
		for i, run := range req.Runs {
			items[i] = SweepItem{Hash: run.Hash(), Cache: obs.CacheMiss, Result: json.RawMessage(`{}`)}
		}
		_ = json.NewEncoder(w).Encode(SweepResponse{Results: items})
	})
	mux.HandleFunc("GET /v1/policies", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(PoliciesResponse{Policies: []string{"A", "B"}})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := obs.NewRegistry()
		reg.Add("serve_runs_total", 7)
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &lastRun
}

func TestRunStampsVersionAndDecodesHeaders(t *testing.T) {
	ts, lastRun := fakeServer(t)
	c := New(ts.URL + "/") // trailing slash tolerated
	res, err := c.Run(context.Background(), RunRequest{RunSpec: solarcore.RunSpec{StepMin: 8}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lastRun.V != WireVersion {
		t.Errorf("server saw v = %d, want %d", lastRun.V, WireVersion)
	}
	if res.Cache != obs.CacheHit || res.Route != RouteHedged || res.Backend != "b1" {
		t.Errorf("dispositions = %+v", res)
	}
	if string(res.Body) != `{"label":"fake"}` {
		t.Errorf("Body = %s", res.Body)
	}
	if _, err := res.Decode(); err != nil {
		t.Errorf("Decode: %v", err)
	}
}

func TestRunSurfacesAPIError(t *testing.T) {
	ts, _ := fakeServer(t)
	c := New(ts.URL)
	_, err := c.Run(context.Background(), RunRequest{RunSpec: solarcore.RunSpec{Day: 429}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeOverloaded {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s (from retry_after_ms)", apiErr.RetryAfter)
	}
}

func TestSweepPoliciesMetricsHealthz(t *testing.T) {
	ts, _ := fakeServer(t)
	c := New(ts.URL)
	ctx := context.Background()

	runs := []RunRequest{{RunSpec: solarcore.RunSpec{Day: 0}}, {RunSpec: solarcore.RunSpec{Day: 1}}}
	sr, err := c.Sweep(ctx, SweepRequest{Runs: runs})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(sr.Results) != 2 || sr.Results[0].Hash != runs[0].Hash() {
		t.Errorf("sweep results = %+v", sr.Results)
	}

	pols, err := c.Policies(ctx)
	if err != nil || len(pols) != 2 {
		t.Errorf("Policies = %v, %v", pols, err)
	}

	snap, err := c.Metrics(ctx)
	if err != nil || snap.Counters["serve_runs_total"] != 7 {
		t.Errorf("Metrics = %+v, %v", snap.Counters, err)
	}

	if err := c.Healthz(ctx); err != nil {
		t.Errorf("Healthz: %v", err)
	}
}

// TestContextCancellationAborts pins that a dead context aborts the
// request with a non-APIError transport error.
func TestContextCancellationAborts(t *testing.T) {
	ts, _ := fakeServer(t)
	c := New(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Run(ctx, RunRequest{})
	if err == nil {
		t.Fatal("Run with canceled context succeeded")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Errorf("cancellation decoded as APIError: %v", err)
	}
}

// TestStreamJoinsDataLines pins the SSE data rule: a frame's data lines
// join with "\n" (the spec's rule, which edge.WriteEvent's one field per
// line relies on), and a frame at or before the resume cursor is dropped.
func TestStreamJoinsDataLines(t *testing.T) {
	wire := "id: 1\nevent: tick\ndata: {\"v\":1,\"type\":\"tick\",\ndata: \"tick\":{\"minute\":361}}\n\n" +
		"id: 1\nevent: tick\ndata: {\"v\":1,\"type\":\"tick\",\"tick\":{\"minute\":362}}\n\n"
	st := NewStreamReader(strings.NewReader(wire), false)
	ev, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"v\":1,\"type\":\"tick\",\n\"tick\":{\"minute\":361}}"; string(ev.Data) != want {
		t.Errorf("Data = %q, want %q", ev.Data, want)
	}
	if ev.ID != 1 || ev.Event == nil || ev.Event.Tick == nil || ev.Event.Tick.Minute != 361 {
		t.Errorf("decoded %+v", ev)
	}
	if ev, err := st.Next(); err != io.EOF {
		t.Errorf("replayed id 1: got %+v, %v; want it dropped and io.EOF", ev, err)
	}
}
