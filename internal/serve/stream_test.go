package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/stream"
)

// streamConfig returns a Config with streaming enabled.
func streamConfig(cfg Config) Config {
	if cfg.Stream == nil {
		cfg.Stream = stream.NewHub(stream.Config{})
	}
	return cfg
}

// emitRun is the canonical stub feed: run_start, n ticks, run_end.
func emitRun(o obs.Observer, n int) {
	e := obs.NewEmitter(o)
	e.RunStart(obs.RunStartEvent{Runner: "stub"})
	for i := 0; i < n; i++ {
		e.Tick(obs.TickEvent{Minute: float64(i)})
	}
	e.RunEnd(obs.RunEndEvent{Runner: "stub"})
}

// streamStub builds a streaming Server whose runner emits a fixed event
// sequence and counts invocations.
func streamStub(t *testing.T, cfg Config, ticks int) (*Server, *httptest2, *atomic.Int64) {
	t.Helper()
	s, ts := newTestServer(t, streamConfig(cfg))
	var runs atomic.Int64
	s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		runs.Add(1)
		emitRun(o, ticks)
		return fakeResult("streamed"), nil
	}
	return s, &httptest2{ts.URL}, &runs
}

// httptest2 wraps the test server URL with typed-client construction.
type httptest2 struct{ url string }

func (h *httptest2) client() *client.Client { return client.New(h.url) }

// collect drains a typed stream into its events.
func collect(t *testing.T, st *client.Stream) []client.StreamEvent {
	t.Helper()
	defer func() { _ = st.Close() }()
	var events []client.StreamEvent
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			return events
		}
		if err != nil {
			t.Fatalf("stream Next: %v (after %d events)", err, len(events))
		}
		events = append(events, ev)
	}
}

// specReq is the standard stream request for fastSpec.
func specReq() client.StreamRequest {
	return client.StreamRequest{RunRequest: client.RunRequest{RunSpec: fastSpec}}
}

func TestStreamLiveDeliversFullSequence(t *testing.T) {
	_, h, runs := streamStub(t, Config{}, 5)
	st, err := h.client().Stream(context.Background(), specReq())
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, st)
	if len(events) != 7 {
		t.Fatalf("got %d events, want run_start + 5 ticks + run_end", len(events))
	}
	if events[0].Type != obs.TypeRunStart || events[len(events)-1].Type != obs.TypeRunEnd {
		t.Fatalf("sequence bounds = %s..%s, want run_start..run_end", events[0].Type, events[len(events)-1].Type)
	}
	for i, ev := range events {
		if ev.ID != uint64(i+1) {
			t.Fatalf("event %d id = %d, want %d", i, ev.ID, i+1)
		}
		if ev.Event == nil {
			t.Fatalf("event %d not decoded", i)
		}
	}
	if st.LastEventID() != 7 {
		t.Fatalf("LastEventID = %d, want 7", st.LastEventID())
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

// TestStreamCoalescesWatchers pins the N-watchers-one-run contract: many
// concurrent subscribers of the same spec share one simulation and all
// see the identical full sequence.
func TestStreamCoalescesWatchers(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, streamConfig(Config{}))
	var runs atomic.Int64
	s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		runs.Add(1)
		<-release
		emitRun(o, 10)
		return fakeResult("coalesced"), nil
	}
	c := client.New(ts.URL)
	const watchers = 4
	streams := make([]*client.Stream, watchers)
	for i := range streams {
		st, err := c.Stream(context.Background(), specReq())
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	close(release)
	var wg sync.WaitGroup
	all := make([][]client.StreamEvent, watchers)
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *client.Stream) {
			defer wg.Done()
			all[i] = collect(t, st)
		}(i, st)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1 for %d watchers", got, watchers)
	}
	want, err := json.Marshal(all[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < watchers; i++ {
		got, err := json.Marshal(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("watcher %d saw a different sequence", i)
		}
	}
	if len(all[0]) != 12 {
		t.Fatalf("watchers saw %d events, want 12", len(all[0]))
	}
}

// TestStreamReplaysFromDurableStore pins the completed-run path: the
// first watch simulates and persists the event tail; a second watch — on
// a fresh topic generation — replays it byte-identically from disk
// without re-simulating.
func TestStreamReplaysFromDurableStore(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	_, h, runs := streamStub(t, Config{Store: st}, 4)
	first := collect(t, mustStream(t, h.client(), specReq()))
	second := collect(t, mustStream(t, h.client(), specReq()))
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1 (second watch must replay from the store)", got)
	}
	if len(first) != len(second) {
		t.Fatalf("replay length %d != live length %d", len(second), len(first))
	}
	for i := range first {
		if string(first[i].Data) != string(second[i].Data) {
			t.Fatalf("event %d differs between live and replay:\n%s\nvs\n%s", i, first[i].Data, second[i].Data)
		}
		if first[i].ID != second[i].ID {
			t.Fatalf("event %d id differs: %d vs %d", i, first[i].ID, second[i].ID)
		}
	}
}

func mustStream(t *testing.T, c *client.Client, req client.StreamRequest) *client.Stream {
	t.Helper()
	st, err := c.Stream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamResumeWithLastEventID pins the reconnect contract: a client
// that saw events 1..k and reconnects with Last-Event-ID k receives
// exactly k+1.. — no duplicates, no silent holes.
func TestStreamResumeWithLastEventID(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	_, h, _ := streamStub(t, Config{Store: st}, 8)
	full := collect(t, mustStream(t, h.client(), specReq()))
	if len(full) != 10 {
		t.Fatalf("full watch = %d events, want 10", len(full))
	}
	req := specReq()
	req.LastEventID = 6
	resumed := collect(t, mustStream(t, h.client(), req))
	if len(resumed) != 4 {
		t.Fatalf("resume after 6 = %d events, want 4", len(resumed))
	}
	for i, ev := range resumed {
		if ev.ID != uint64(7+i) {
			t.Fatalf("resumed event %d id = %d, want %d", i, ev.ID, 7+i)
		}
		if string(ev.Data) != string(full[6+i].Data) {
			t.Fatalf("resumed event %d differs from the original", i)
		}
	}
}

// TestStreamRunAndWatchShareOneSimulation pins cross-route coalescing: a
// /v1/run request arriving while a stream lead is simulating joins that
// flight instead of starting its own.
func TestStreamRunAndWatchShareOneSimulation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, streamConfig(Config{}))
	var runs atomic.Int64
	s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		runs.Add(1)
		close(started)
		<-release
		emitRun(o, 3)
		return fakeResult("shared"), nil
	}
	c := client.New(ts.URL)
	stm := mustStream(t, c, specReq())
	<-started
	runDone := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), client.RunRequest{RunSpec: fastSpec})
		runDone <- err
	}()
	// The run request must be waiting on the stream lead's flight, not
	// simulating; give it a moment to join, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-runDone; err != nil {
		t.Fatalf("coalesced run: %v", err)
	}
	events := collect(t, stm)
	if len(events) != 5 {
		t.Fatalf("watch saw %d events, want 5", len(events))
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1 shared by the stream and the run", got)
	}
}

func TestStreamValidation(t *testing.T) {
	s, ts := newTestServer(t, streamConfig(Config{}))
	s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		emitRun(o, 1)
		return fakeResult("v"), nil
	}
	goodSpec := url.QueryEscape(`{"site":"AZ","season":"Jul","mix":"HM2","step_min":8}`)
	cases := []struct {
		name       string
		path       string
		lastEvent  string
		wantStatus int
		wantSubstr string
	}{
		{"missing spec", "/v1/stream", "", http.StatusBadRequest, "missing spec"},
		{"malformed spec", "/v1/stream?spec=%7Bnot", "", http.StatusBadRequest, "bad spec"},
		{"unknown field", "/v1/stream?spec=" + url.QueryEscape(`{"sight":"AZ"}`), "", http.StatusBadRequest, "sight"},
		{"bad version", "/v1/stream?spec=" + url.QueryEscape(`{"v":9}`), "", http.StatusBadRequest, "unsupported wire version"},
		{"bad policy", "/v1/stream?spec=" + url.QueryEscape(`{"policy":"nope"}`), "", http.StatusBadRequest, "unknown policy"},
		{"bad last-event-id", "/v1/stream?spec=" + goodSpec, "abc", http.StatusBadRequest, "Last-Event-ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lastEvent != "" {
				req.Header.Set(client.HeaderLastEventID, tc.lastEvent)
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
			if !strings.Contains(string(data), tc.wantSubstr) {
				t.Errorf("body %q does not mention %q", data, tc.wantSubstr)
			}
		})
	}
}

func TestStreamDisabledAndDraining(t *testing.T) {
	// No hub configured: the route answers 404.
	_, ts := newTestServer(t, Config{})
	resp, data := get(t, ts, "/v1/stream?spec=%7B%7D")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled stream = %d, want 404; body: %s", resp.StatusCode, data)
	}
	// Draining: new streams are refused 503 like every other route.
	s2, ts2 := newTestServer(t, streamConfig(Config{}))
	s2.StartDrain()
	resp2, data2 := get(t, ts2, "/v1/stream?spec=%7B%7D")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining stream = %d, want 503; body: %s", resp2.StatusCode, data2)
	}
	if !strings.Contains(string(data2), client.CodeDraining) {
		t.Errorf("draining body %q lacks code %q", data2, client.CodeDraining)
	}
}

// TestStreamErrorFrame pins the mid-stream failure contract: a feed that
// dies after the SSE response is committed delivers one terminal error
// frame that the typed client decodes into the same *APIError a failing
// request would produce.
func TestStreamErrorFrame(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode string
	}{
		{"internal", errors.New("solver exploded"), client.CodeInternal},
		{"deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), client.CodeDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, streamConfig(Config{}))
			s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
				obs.NewEmitter(o).RunStart(obs.RunStartEvent{Runner: "doomed"})
				return nil, tc.err
			}
			st := mustStream(t, client.New(ts.URL), specReq())
			defer func() { _ = st.Close() }()
			first, err := st.Next()
			if err != nil || first.Type != obs.TypeRunStart {
				t.Fatalf("first = %+v, %v; want run_start", first, err)
			}
			_, err = st.Next()
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("terminal error = %v, want *APIError", err)
			}
			if apiErr.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", apiErr.Code, tc.wantCode)
			}
			if apiErr.Status != 0 {
				t.Errorf("status = %d, want 0 for a mid-stream failure", apiErr.Status)
			}
		})
	}
}

// TestStreamHeartbeat pins the idle keep-alive: a feed that stalls longer
// than the heartbeat interval produces comment frames, surfaced as
// TypeHeartbeat events when the watcher opts in and skipped otherwise.
func TestStreamHeartbeat(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, streamConfig(Config{Heartbeat: 5 * time.Millisecond}))
	s.runSpec = func(_ context.Context, _ solarcore.RunSpec, o obs.Observer) (*solarcore.DayResult, error) {
		e := obs.NewEmitter(o)
		e.RunStart(obs.RunStartEvent{Runner: "slow"})
		<-release
		e.RunEnd(obs.RunEndEvent{Runner: "slow"})
		return fakeResult("slow"), nil
	}
	req := specReq()
	req.Heartbeats = true
	st := mustStream(t, client.New(ts.URL), req)
	defer func() { _ = st.Close() }()
	if ev, err := st.Next(); err != nil || ev.Type != obs.TypeRunStart {
		t.Fatalf("first = %+v, %v; want run_start", ev, err)
	}
	hb := 0
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("Next during stall: %v", err)
		}
		if ev.Type == client.TypeHeartbeat {
			if hb++; hb >= 2 {
				break
			}
			continue
		}
		t.Fatalf("unexpected %s event during stall", ev.Type)
	}
	close(release)
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("Next after release: %v", err)
		}
		if ev.Type == client.TypeHeartbeat {
			continue
		}
		if ev.Type != obs.TypeRunEnd {
			t.Fatalf("got %s, want run_end", ev.Type)
		}
		break
	}
	if _, err := st.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after run_end: %v, want io.EOF", err)
	}
}

// TestStreamRealSimulationEndToEnd runs the full stack once — real
// engine, HTTP, SSE, typed client — and checks the stream against the
// sink-produced ground truth byte for byte.
func TestStreamRealSimulationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	_, ts := newTestServer(t, streamConfig(Config{}))
	events := collect(t, mustStream(t, client.New(ts.URL), specReq()))
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != obs.TypeRunStart || events[len(events)-1].Type != obs.TypeRunEnd {
		t.Fatalf("bounds %s..%s", events[0].Type, events[len(events)-1].Type)
	}
	// Ground truth: the same spec run directly with a JSONL sink.
	var buf strings.Builder
	sink := obs.NewJSONLSink(&buf)
	if _, err := fastSpec.Run(context.Background(), solarcore.WithObserver(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, ev := range events {
		got.Write(ev.Data)
		got.WriteByte('\n')
	}
	if got.String() != buf.String() {
		t.Fatal("streamed events differ from direct-run sink output")
	}
}
