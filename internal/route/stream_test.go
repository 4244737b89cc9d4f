package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"solarcore/client"
	"solarcore/internal/obs"
)

// streamLine is one scripted event of a fake backend's feed.
type streamLine struct {
	typ  string
	data []byte
}

// scriptEvents builds a valid run event sequence: run_start, n ticks,
// run_end — the JSONL lines a real solard would stream, ids 1..n+2.
func scriptEvents(t *testing.T, n int) []streamLine {
	t.Helper()
	var lines []streamLine
	add := func(ev obs.Event) {
		ev.V = obs.SchemaVersion
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal script event: %v", err)
		}
		lines = append(lines, streamLine{typ: ev.Type, data: b})
	}
	add(obs.Event{Type: obs.TypeRunStart, RunStart: &obs.RunStartEvent{Runner: "MPPT", Policy: "oracle", Mix: "mild"}})
	for i := 0; i < n; i++ {
		add(obs.Event{Type: obs.TypeTick, Tick: &obs.TickEvent{Minute: float64(360 + i), BudgetW: 40, DemandW: 35, OnSolar: true}})
	}
	add(obs.Event{Type: obs.TypeRunEnd, RunEnd: &obs.RunEndEvent{Runner: "MPPT", SolarWh: 100}})
	return lines
}

// fakeStreamNode is a scriptable SSE backend: it serves the scripted
// event sequence on GET /v1/stream, honoring Last-Event-ID, and can be
// told to refuse connections, cut them mid-frame, send a malformed
// frame, emit heartbeat comments, or end with a terminal SSE error frame.
type fakeStreamNode struct {
	ts      *httptest.Server
	events  []streamLine
	streams atomic.Int32 // /v1/stream connections received
	resume  atomic.Int64 // Last-Event-ID of the most recent connection

	refuse    atomic.Int32 // non-zero: answer with this HTTP status
	cutConns  atomic.Int32 // connections remaining that cut mid-frame
	cutAfterN atomic.Int32 // events each cutting connection delivers first
	badConns  atomic.Int32 // connections remaining that send a malformed frame instead of cutting
	hb        atomic.Bool  // emit a keep-alive comment before each event
	errFrame  atomic.Bool  // emit a terminal error frame after one event
}

func (f *fakeStreamNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		f.streams.Add(1)
		after, err := client.ParseLastEventID(r.Header.Get(client.HeaderLastEventID))
		if err != nil {
			client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, err.Error())
			return
		}
		f.resume.Store(int64(after))
		if code := int(f.refuse.Load()); code != 0 {
			client.WriteError(w, code, "injected", "injected stream refusal")
			return
		}
		cut, bad := false, false
		if f.cutConns.Load() > 0 {
			f.cutConns.Add(-1)
			cut = true
		} else if f.badConns.Load() > 0 {
			f.badConns.Add(-1)
			bad = true
		}
		rc := http.NewResponseController(w)
		w.Header().Set("Content-Type", client.ContentTypeSSE)
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		sent := 0
		for i := int(after); i < len(f.events); i++ {
			if cut && sent == int(f.cutAfterN.Load()) {
				// Sever mid-frame: a torn id line with no terminator.
				_, _ = io.WriteString(w, "id: 9")
				_ = rc.Flush()
				return
			}
			if bad && sent == int(f.cutAfterN.Load()) {
				// A complete frame whose payload is not an event envelope.
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: {not json\n\n", i+1, f.events[i].typ)
				_ = rc.Flush()
				return
			}
			if f.hb.Load() {
				_, _ = io.WriteString(w, ": hb\n\n")
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", i+1, f.events[i].typ, f.events[i].data)
			_ = rc.Flush()
			sent++
			if f.errFrame.Load() {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n",
					client.StreamEventError, client.ErrorBody("injected", "run exploded", 0))
				_ = rc.Flush()
				return
			}
		}
	})
	return mux
}

// newStreamFleet starts n scripted SSE nodes sharing one event script
// (a deterministic fleet: every node would produce identical events).
func newStreamFleet(t *testing.T, n, ticks int) ([]*fakeStreamNode, []string, []streamLine) {
	t.Helper()
	script := scriptEvents(t, ticks)
	nodes := make([]*fakeStreamNode, n)
	urls := make([]string, n)
	for i := range nodes {
		f := &fakeStreamNode{events: script}
		f.ts = httptest.NewServer(f.handler())
		t.Cleanup(f.ts.Close)
		nodes[i] = f
		urls[i] = f.ts.URL
	}
	return nodes, urls, script
}

// streamOwnerOrder maps the ring's candidate order for req onto the fleet.
func streamOwnerOrder(rt *Router, nodes []*fakeStreamNode, req client.RunRequest) []*fakeStreamNode {
	idxs := rt.ring.owners(req.Hash(), len(nodes))
	out := make([]*fakeStreamNode, len(idxs))
	for i, idx := range idxs {
		for _, n := range nodes {
			if n.ts.URL == rt.backends[idx].name {
				out[i] = n
			}
		}
	}
	return out
}

// watchThroughGate serves the router on a real listener and collects the
// whole relayed stream through the typed client, returning the events
// delivered before the stream ended and the terminal error (nil for a
// clean EOF).
func watchThroughGate(t *testing.T, rt *Router, req client.StreamRequest) ([]client.StreamEvent, error) {
	t.Helper()
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := client.New(gate.URL).Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	var got []client.StreamEvent
	for {
		ev, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return got, nil
			}
			return got, err
		}
		got = append(got, ev)
	}
}

// checkSequence asserts the identified events are exactly script[from:],
// strictly consecutive ids, byte-identical payloads.
func checkSequence(t *testing.T, got []client.StreamEvent, script []streamLine, from int) {
	t.Helper()
	var ids []client.StreamEvent
	for _, ev := range got {
		if ev.ID > 0 {
			ids = append(ids, ev)
		}
	}
	want := script[from:]
	if len(ids) != len(want) {
		t.Fatalf("got %d identified events, want %d", len(ids), len(want))
	}
	for i, ev := range ids {
		if wantID := uint64(from + i + 1); ev.ID != wantID {
			t.Fatalf("event %d has id %d, want %d (sequence not consecutive)", i, ev.ID, wantID)
		}
		if ev.Type != want[i].typ {
			t.Errorf("event id %d type %q, want %q", ev.ID, ev.Type, want[i].typ)
		}
		if string(ev.Data) != string(want[i].data) {
			t.Errorf("event id %d data %s, want %s", ev.ID, ev.Data, want[i].data)
		}
	}
}

func TestStreamRelayDeliversSequence(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 2, 4)
	rt := newTestRouter(t, urls, nil)
	req := spec(1)
	order := streamOwnerOrder(rt, nodes, req)

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: req})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	checkSequence(t, got, script, 0)
	if n := order[0].streams.Load(); n != 1 {
		t.Errorf("owner saw %d stream connections, want 1", n)
	}
	if n := order[1].streams.Load(); n != 0 {
		t.Errorf("non-owner saw %d stream connections, want 0", n)
	}
	snap := rt.Metrics()
	if snap.Counters[MetricStreams] != 1 {
		t.Errorf("%s = %v, want 1", MetricStreams, snap.Counters[MetricStreams])
	}
	if want := float64(len(script)); snap.Counters[MetricStreamEvents] != want {
		t.Errorf("%s = %v, want %v", MetricStreamEvents, snap.Counters[MetricStreamEvents], want)
	}
	if snap.Counters[MetricStreamReconnects] != 0 {
		t.Errorf("%s = %v, want 0", MetricStreamReconnects, snap.Counters[MetricStreamReconnects])
	}
}

func TestStreamRelayResumeFromLastEventID(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 1, 4)
	rt := newTestRouter(t, urls, nil)
	req := spec(1)

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: req, LastEventID: 3})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	checkSequence(t, got, script, 3)
	if n := nodes[0].resume.Load(); n != 3 {
		t.Errorf("backend saw Last-Event-ID %d, want 3", n)
	}
}

func TestStreamRelayReconnectsAfterMidStreamCut(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 1, 6)
	rt := newTestRouter(t, urls, nil)
	req := spec(1)
	nodes[0].cutConns.Store(1)
	nodes[0].cutAfterN.Store(2) // sever after relaying ids 1..2

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: req})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	// The watcher must see the whole sequence exactly once — no holes, no
	// duplicates — even though the upstream died after two events.
	checkSequence(t, got, script, 0)
	if n := nodes[0].streams.Load(); n != 2 {
		t.Errorf("backend saw %d connections, want 2 (cut + reconnect)", n)
	}
	if n := nodes[0].resume.Load(); n != 2 {
		t.Errorf("reconnect resumed with Last-Event-ID %d, want 2", n)
	}
	if n := rt.Metrics().Counters[MetricStreamReconnects]; n != 1 {
		t.Errorf("%s = %v, want 1", MetricStreamReconnects, n)
	}
}

func TestStreamRelayFailsOverToNextOwner(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 2, 3)
	rt := newTestRouter(t, urls, nil)
	req := spec(1)
	order := streamOwnerOrder(rt, nodes, req)
	order[0].refuse.Store(http.StatusServiceUnavailable)

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: req})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	checkSequence(t, got, script, 0)
	if n := order[1].streams.Load(); n != 1 {
		t.Errorf("next owner saw %d connections, want 1", n)
	}
}

func TestStreamRelayHeartbeatsPassThrough(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 1, 2)
	rt := newTestRouter(t, urls, nil)
	nodes[0].hb.Store(true)

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: spec(1), Heartbeats: true})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	hbs := 0
	for _, ev := range got {
		if ev.Type == client.TypeHeartbeat {
			hbs++
		}
	}
	if hbs != len(script) {
		t.Errorf("saw %d relayed heartbeats, want %d (one per event)", hbs, len(script))
	}
	checkSequence(t, got, script, 0)
}

func TestStreamRelayErrorFramePassesThrough(t *testing.T) {
	nodes, urls, _ := newStreamFleet(t, 1, 3)
	rt := newTestRouter(t, urls, nil)
	nodes[0].errFrame.Store(true)

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: spec(1)})
	if err == nil {
		t.Fatal("watch succeeded, want relayed error frame")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *client.APIError", err)
	}
	if ae.Code != "injected" || ae.Status != 0 {
		t.Errorf("relayed error = code %q status %d, want %q/0", ae.Code, ae.Status, "injected")
	}
	if len(got) != 1 {
		t.Errorf("got %d events before the error, want 1", len(got))
	}
	// A run failure is a definite answer: the relay must not retry it.
	if n := nodes[0].streams.Load(); n != 1 {
		t.Errorf("backend saw %d connections, want 1 (no retry on error frame)", n)
	}
}

func TestStreamRelayReconnectsAfterMalformedFrame(t *testing.T) {
	nodes, urls, script := newStreamFleet(t, 1, 6)
	rt := newTestRouter(t, urls, nil)
	nodes[0].badConns.Store(1)
	nodes[0].cutAfterN.Store(2) // ids 1..2 relayed, then a garbled id 3

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: spec(1)})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	// Damaged bytes are a transport fault, as for a /v1/run body that fails
	// its checksum: reconnect and resume, never end the watcher's stream.
	checkSequence(t, got, script, 0)
	if n := nodes[0].resume.Load(); n != 2 {
		t.Errorf("reconnect resumed with Last-Event-ID %d, want 2", n)
	}
	if n := rt.Metrics().Counters[MetricStreamReconnects]; n != 1 {
		t.Errorf("%s = %v, want 1", MetricStreamReconnects, n)
	}
}

// countingTransport counts upstream /v1/stream attempts.
type countingTransport struct {
	streams atomic.Int32
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/stream" {
		c.streams.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestStreamRelayCancelledWatcherTriesOneOwner(t *testing.T) {
	_, urls, _ := newStreamFleet(t, 3, 2)
	ct := &countingTransport{}
	rt := newTestRouter(t, urls, func(c *Config) { c.HTTPClient = &http.Client{Transport: ct} })

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the watcher hung up before the relay committed
	r := httptest.NewRequest(http.MethodGet, "/v1/stream?spec=%7B%22v%22%3A1%2C%22step_min%22%3A8%7D", nil).WithContext(ctx)
	rt.Handler().ServeHTTP(httptest.NewRecorder(), r)

	// Cancellation is the caller's, not the owner's: no other owner can
	// cure it, so the relay stops after the first attempt.
	if n := ct.streams.Load(); n != 1 {
		t.Errorf("upstream stream attempts = %d, want 1", n)
	}
}

func TestStreamRelayReconnectBudgetExhausted(t *testing.T) {
	nodes, urls, _ := newStreamFleet(t, 1, 8)
	rt := newTestRouter(t, urls, nil) // MaxRetries defaults to 2
	nodes[0].cutConns.Store(100)      // every connection cuts
	nodes[0].cutAfterN.Store(1)       // after one fresh event each

	got, err := watchThroughGate(t, rt, client.StreamRequest{RunRequest: spec(1)})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want terminal *client.APIError after budget", err)
	}
	if ae.Code != client.CodeUnreachable || ae.Status != 0 {
		t.Errorf("terminal error = code %q status %d, want %q/0", ae.Code, ae.Status, client.CodeUnreachable)
	}
	// 1 + MaxRetries connections, each contributing one fresh event.
	if n := nodes[0].streams.Load(); n != 3 {
		t.Errorf("backend saw %d connections, want 3", n)
	}
	if len(got) != 3 {
		t.Errorf("got %d events before giving up, want 3", len(got))
	}
	if n := rt.Metrics().Counters[MetricStreamReconnects]; n != 2 {
		t.Errorf("%s = %v, want 2", MetricStreamReconnects, n)
	}
}

func TestStreamRelayValidation(t *testing.T) {
	_, urls, _ := newStreamFleet(t, 1, 1)
	rt := newTestRouter(t, urls, nil)
	cases := []struct {
		name, target, lastID string
		wantCode             string
	}{
		{"missing spec", "/v1/stream", "", client.CodeBadRequest},
		{"unknown field", "/v1/stream?spec=%7B%22v%22%3A1%2C%22bogus%22%3A1%7D", "", client.CodeBadRequest},
		{"bad version", "/v1/stream?spec=%7B%22v%22%3A9%2C%22step_min%22%3A8%7D", "", client.CodeUnsupportedVersion},
		{"invalid spec", "/v1/stream?spec=%7B%22v%22%3A1%2C%22day%22%3A-3%7D", "", client.CodeBadRequest},
		{"bad last-event-id", "/v1/stream?spec=%7B%22v%22%3A1%2C%22step_min%22%3A8%7D", "nope", client.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, tc.target, nil)
			if tc.lastID != "" {
				r.Header.Set(client.HeaderLastEventID, tc.lastID)
			}
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, r)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
			if e := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes()); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}

	rt.StartDrain()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stream?spec=%7B%22v%22%3A1%2C%22step_min%22%3A8%7D", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", rec.Code)
	}
}

func TestStreamRelayNoBackends(t *testing.T) {
	_, urls, _ := newStreamFleet(t, 1, 1)
	rt := newTestRouter(t, urls, nil)
	rt.backends[0].healthy.Store(false)

	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := client.New(gate.URL).Stream(ctx, client.StreamRequest{RunRequest: spec(1)})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *client.APIError", err)
	}
	if ae.Code != client.CodeNoBackends || ae.Status != http.StatusServiceUnavailable {
		t.Errorf("error = code %q status %d, want %q/503", ae.Code, ae.Status, client.CodeNoBackends)
	}
}
