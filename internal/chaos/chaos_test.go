package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/store"
	"solarcore/internal/stream"
)

// backend starts a real serve.Server (real engine, no stubs) behind an
// httptest listener and returns its host:port for proxying.
func backend(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, strings.TrimPrefix(ts.URL, "http://")
}

// proxyFor builds a chaos proxy in front of target with a parsed spec.
func proxyFor(t *testing.T, target, spec string, seed int64) *Proxy {
	t.Helper()
	rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	p, err := New(Config{Target: target, Rules: rules, Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// freshConnClient builds a typed client that dials one connection per
// request, so request count equals proxy connection ordinal.
func freshConnClient(base string) *client.Client {
	return client.New(base, client.WithHTTPClient(&http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   10 * time.Second,
	}))
}

func chaosSpec(i int) client.RunRequest {
	return client.RunRequest{V: client.WireVersion, RunSpec: solarcore.RunSpec{Day: i, StepMin: 8}}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec(" corrupt:from=0,to=10,p=0.5 ; latency : from=2, to=4, p=1, ms=30, jms=10 ;truncate:from=0,to=9,p=1,bytes=7")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Kind: KindCorrupt, From: 0, To: 10, P: 0.5},
		{Kind: KindLatency, From: 2, To: 4, P: 1, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond},
		{Kind: KindTruncate, From: 0, To: 9, P: 1, Bytes: 7},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	if r, err := ParseSpec("  "); err != nil || r != nil {
		t.Errorf("blank spec = %v, %v; want empty schedule", r, err)
	}
	for _, bad := range []string{
		"reset",                      // no colon
		"reset:from=0",               // empty window (to=0)
		"reset:from=3,to=3,p=1",      // empty window
		"warp:from=0,to=1,p=1",       // unknown kind
		"reset:from=0,to=1,p=2",      // p out of range
		"reset:from=0,to=1,p",        // field with no '='
		"reset:from=zero,to=1,p=1",   // non-numeric int
		"corrupt:from=0,to=1,prob=1", // unknown field
		"latency:from=0,to=1,p=x",    // non-numeric float
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestPlanDeterminism pins the replay contract: the faults a connection
// draws depend only on (seed, ordinal, rule order).
func TestPlanDeterminism(t *testing.T) {
	rules, err := ParseSpec("corrupt:from=0,to=50,p=0.5;partition:from=20,to=30,p=1")
	if err != nil {
		t.Fatal(err)
	}
	a := &Proxy{cfg: Config{Seed: 7, Rules: rules}}
	b := &Proxy{cfg: Config{Seed: 7, Rules: rules}}
	c := &Proxy{cfg: Config{Seed: 8, Rules: rules}}
	var sameAsC int
	corrupted := 0
	for ord := 0; ord < 50; ord++ {
		pa, pb, pc := a.planFor(ord), b.planFor(ord), c.planFor(ord)
		if pa.corrupt != pb.corrupt || pa.partition != pb.partition {
			t.Fatalf("ordinal %d: same seed drew different plans", ord)
		}
		if pa.corrupt == pc.corrupt {
			sameAsC++
		}
		if pa.corrupt {
			corrupted++
		}
		if pa.partition != (ord >= 20 && ord < 30) {
			t.Errorf("ordinal %d: partition = %v outside its window", ord, pa.partition)
		}
	}
	if corrupted == 0 || corrupted == 50 {
		t.Errorf("p=0.5 corrupted %d/50 connections; rng not engaged", corrupted)
	}
	if sameAsC == 50 {
		t.Error("seed 7 and seed 8 drew identical corruption patterns")
	}
}

// TestCorruptWriterFlipsOneBodyBit pins the corruption model: HTTP
// framing passes untouched, the body differs by exactly one bit.
func TestCorruptWriterFlipsOneBodyBit(t *testing.T) {
	head := "HTTP/1.1 200 OK\r\nContent-Length: 32\r\n\r\n"
	body := `{"label":"abcdefghijklmnopqr"}ab`
	p := &Proxy{cfg: Config{Seed: 3}}
	var out bytes.Buffer
	cw := &corruptWriter{w: &out, rng: p.planFor(0).rng}
	// Write in awkward chunks so the \r\n\r\n scan crosses boundaries.
	whole := head + body
	for i := 0; i < len(whole); i += 7 {
		end := i + 7
		if end > len(whole) {
			end = len(whole)
		}
		if _, err := cw.Write([]byte(whole[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	got := out.String()
	if len(got) != len(whole) {
		t.Fatalf("length changed: %d -> %d", len(whole), len(got))
	}
	if got[:len(head)] != head {
		t.Fatalf("headers modified:\n%q\nvs\n%q", got[:len(head)], head)
	}
	flipped := 0
	for i := range body {
		flipped += bits.OnesCount8(got[len(head)+i] ^ body[i])
	}
	if flipped != 1 {
		t.Errorf("%d body bits flipped, want exactly 1", flipped)
	}
}

// TestFaithfulRelay pins the no-rules baseline: the proxy must be
// invisible — byte-identical bodies, checksums verifying.
func TestFaithfulRelay(t *testing.T) {
	_, addr := backend(t, serve.Config{})
	p := proxyFor(t, addr, "", 1)
	ctx := context.Background()

	direct, err := client.New("http://"+addr).Run(ctx, chaosSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := freshConnClient(p.URL()).Run(ctx, chaosSpec(1))
	if err != nil {
		t.Fatalf("proxied run: %v", err)
	}
	if !bytes.Equal(direct.Body, proxied.Body) {
		t.Error("relay is not byte-faithful")
	}
}

// TestNeverSilentCorruption is the tentpole invariant: under a schedule
// mixing corruption, truncation and resets, every request either
// returns the byte-identical correct body or fails with an error —
// and bit-flipped 200s specifically surface as *client.IntegrityError
// (temporary, so a router fails over). A silent wrong-byte success is
// the one outcome that must never happen.
func TestNeverSilentCorruption(t *testing.T) {
	_, addr := backend(t, serve.Config{})
	ctx := context.Background()
	truth, err := client.New("http://"+addr).Run(ctx, chaosSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	p := proxyFor(t, addr,
		"corrupt:from=0,to=1000,p=0.6;truncate:from=0,to=1000,p=0.2,bytes=40;reset:from=0,to=1000,p=0.2", 11)
	cli := freshConnClient(p.URL())

	var clean, integrity, transport int
	for i := 0; i < 40; i++ {
		res, err := cli.Run(ctx, chaosSpec(2))
		switch {
		case err == nil:
			if !bytes.Equal(res.Body, truth.Body) {
				t.Fatalf("request %d: SILENT CORRUPTION — 200 with wrong bytes", i)
			}
			clean++
		default:
			var ie *client.IntegrityError
			if errors.As(err, &ie) {
				if !ie.Temporary() {
					t.Errorf("request %d: IntegrityError not temporary; routers would not fail over", i)
				}
				integrity++
			} else {
				transport++
			}
		}
	}
	t.Logf("outcomes over 40 requests: %d clean, %d integrity, %d transport", clean, integrity, transport)
	if clean == 0 {
		t.Error("no clean request survived; schedule leaves no baseline to compare")
	}
	if integrity == 0 {
		t.Error("no corruption was caught by the checksum; the integrity path is untested")
	}
	if transport == 0 {
		t.Error("no truncation/reset surfaced as a transport error")
	}
}

// TestPartitionHedgingBoundsTailLatency pins the fleet's answer to a
// black-hole partition: with one of two nodes swallowing every packet,
// requests still succeed — the hedge timer detects the silence and the
// healthy owner answers — and the worst-case latency stays near the
// hedge delay, nowhere near a timeout.
func TestPartitionHedgingBoundsTailLatency(t *testing.T) {
	_, addrA := backend(t, serve.Config{})
	_, addrB := backend(t, serve.Config{})
	p := proxyFor(t, addrA, "partition:from=0,to=1000000,p=1", 5)

	rt, err := route.New(route.Config{
		Backends:      []string{p.URL(), "http://" + addrB},
		Clock:         time.Now,
		HedgeDelay:    50 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		ProbeInterval: time.Minute, // keep the prober out of this test
		ProbeJitter:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	gate := httptest.NewServer(rt.Handler())
	t.Cleanup(gate.Close)
	cli := client.New(gate.URL)
	ctx := context.Background()

	hedged := 0
	var worst time.Duration
	for i := 0; i < 12; i++ {
		start := time.Now()
		res, err := cli.Run(ctx, chaosSpec(100+i))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("request %d failed under single-node partition: %v", i, err)
		}
		if elapsed > worst {
			worst = elapsed
		}
		if res.Route == client.RouteHedged {
			hedged++
		}
	}
	if hedged == 0 {
		t.Error("no request was hedged; the partitioned node never owned a key — widen the spec range")
	}
	// Bound the tail: a hedged request costs ~HedgeDelay + one fast run.
	// 5s is an order of magnitude of slack on a loaded CI box while still
	// proving nobody waited for a TCP timeout.
	if worst > 5*time.Second {
		t.Errorf("worst latency %v; hedging is not bounding the tail", worst)
	}
	t.Logf("12 requests, %d hedged, worst latency %v", hedged, worst)
}

// TestCrashRestartServesDurablyThroughChaos is the kill-and-restart
// story end to end over HTTP: generation 1 computes and persists, the
// process "dies" mid-write (no drain, no store.Close, a torn temp file
// and a torn record on disk), and generation 2 — reached through a
// fresh chaos proxy — serves the same bytes as a durable cache hit
// without re-simulating, while the torn record is quarantined.
func TestCrashRestartServesDurablyThroughChaos(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, addr1 := backend(t, serve.Config{Store: st1})
	p1 := proxyFor(t, addr1, "", 1)
	body1, err := freshConnClient(p1.URL()).Run(ctx, chaosSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if body1.Cache != obs.CacheMiss {
		t.Fatalf("gen1 disposition = %q, want %q", body1.Cache, obs.CacheMiss)
	}
	// The crash: no drain, no Close. The kill lands mid-write for two
	// other keys — a temp file that never got renamed and a record whose
	// tail was cut.
	if err := os.WriteFile(filepath.Join(dir, "halfway.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tornkey.rec"), []byte("SCR1\x00\x01"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st2, err := store.Open(store.Config{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	serveReg := obs.NewRegistry()
	_, addr2 := backend(t, serve.Config{Store: st2, Registry: serveReg})
	p2 := proxyFor(t, addr2, "", 2)
	body2, err := freshConnClient(p2.URL()).Run(ctx, chaosSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if body2.Cache != obs.CacheHit {
		t.Errorf("post-restart disposition = %q, want %q", body2.Cache, obs.CacheHit)
	}
	if !bytes.Equal(body1.Body, body2.Body) {
		t.Error("post-restart body is not byte-identical")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[store.MetricQuarantined]; got != 1 {
		t.Errorf("%s = %v, want 1 (the torn record)", store.MetricQuarantined, got)
	}
	if got := serveReg.Snapshot().Counters[serve.MetricRuns]; got != 0 {
		t.Errorf("gen2 re-simulated %v times; durable hit should cost zero runs", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "halfway.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray temp file survived the boot scan")
	}
}

// TestGateDeathMidSweepRecomputesOnlyUnfinishedCells pins the sweep
// resume story without any gate-side state: gate A dies partway through
// a sweep, a fresh gate B over the same backends takes the identical
// batch, and the fleet simulates every cell exactly once across both
// attempts. Finished cells come back from their owner's result cache;
// a cell still running when A died keeps running (serve fills under its
// base context, not the request's) and B's request coalesces onto it.
func TestGateDeathMidSweepRecomputesOnlyUnfinishedCells(t *testing.T) {
	const n = 16
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	var backends []string
	for _, reg := range regs {
		_, addr := backend(t, serve.Config{Registry: reg})
		backends = append(backends, "http://"+addr)
	}
	runs := func() float64 {
		var sum float64
		for _, reg := range regs {
			sum += reg.Snapshot().Counters[serve.MetricRuns]
		}
		return sum
	}
	gate := func(workers int) *client.Client {
		rt, err := route.New(route.Config{
			Backends:      backends,
			Clock:         time.Now,
			HedgeDelay:    time.Hour, // no cell may run twice
			BackoffBase:   time.Millisecond,
			ProbeInterval: time.Minute, // keep the prober out of this test
			ProbeJitter:   -1,
			SweepWorkers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		return client.New(ts.URL)
	}
	req := client.SweepRequest{V: client.WireVersion}
	for i := 0; i < n; i++ {
		req.Runs = append(req.Runs, chaosSpec(200+i))
	}

	// Gate A walks the grid one cell at a time and is cut off once two
	// cells have finished, leaving one in flight and the rest unfed.
	ctxA, cutA := context.WithCancel(context.Background())
	defer cutA()
	gateA := gate(1)
	errA := make(chan error, 1)
	go func() {
		_, err := gateA.Sweep(ctxA, req)
		errA <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for runs() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("gate A finished no cells within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	cutA()
	if err := <-errA; err == nil {
		t.Fatal("gate A completed the whole sweep before the cut; nothing was left to resume")
	}
	finished := runs()
	if finished >= n {
		t.Fatalf("%v of %d cells ran before the cut; nothing was left to resume", finished, n)
	}

	// Gate B: same backends, same batch, no memory of A.
	sr, err := gate(0).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("resubmitted sweep: %v", err)
	}
	if got := runs(); got != n {
		t.Errorf("backends ran %v simulations across both attempts, want exactly %d", got, n)
	}
	t.Logf("%v of %d cells had run when gate A died", finished, n)

	// Byte identity against an independent single node.
	if len(sr.Results) != n {
		t.Fatalf("resubmitted sweep returned %d cells, want %d", len(sr.Results), n)
	}
	_, addr := backend(t, serve.Config{})
	direct := client.New("http://" + addr)
	for i, item := range sr.Results {
		if item.Error != "" {
			t.Fatalf("cell %d failed on resubmission: %s", i, item.Error)
		}
		truth, err := direct.Run(context.Background(), req.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(item.Result, truth.Body) {
			t.Errorf("cell %d bytes differ from a direct single-node run", i)
		}
	}
}

// collectStream drains one whole /v1/stream watch and returns every
// identified event in order (heartbeats and any unidentified frames are
// not part of the sequence contract).
func collectStream(ctx context.Context, t *testing.T, cli *client.Client, req client.RunRequest) []client.StreamEvent {
	t.Helper()
	st, err := cli.Stream(ctx, client.StreamRequest{RunRequest: req})
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer func() { _ = st.Close() }()
	var got []client.StreamEvent
	for {
		ev, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return got
			}
			t.Fatalf("stream after %d events: %v", len(got), err)
		}
		if ev.ID > 0 {
			got = append(got, ev)
		}
	}
}

// TestMidStreamPartitionResumesGapless pins the live-streaming failure
// story (DESIGN.md §17): a watcher attached through solargate keeps its
// event sequence intact when the wire to the backend is severed mid-
// stream. The proxy truncates exactly the first connection after a few
// frames; the gate must reconnect with Last-Event-ID pinned to the last
// relayed event, and the watcher must observe the identical sequence a
// fault-free direct watch produces — every id consecutive, every payload
// byte-equal, nothing silently missing.
func TestMidStreamPartitionResumesGapless(t *testing.T) {
	hub := stream.NewHub(stream.Config{})
	_, addr := backend(t, serve.Config{Stream: hub})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := chaosSpec(6)

	// Ground truth: the full sequence over a clean wire.
	truth := collectStream(ctx, t, client.New("http://"+addr), req)
	if len(truth) < 10 {
		t.Fatalf("truth watch produced only %d events; spec too small to cut mid-stream", len(truth))
	}
	if truth[len(truth)-1].Type != obs.TypeRunEnd {
		t.Fatalf("truth watch ended on %q, want %q", truth[len(truth)-1].Type, obs.TypeRunEnd)
	}

	// The partition: the first proxied connection is cut after 2000
	// response bytes — HTTP headers plus a handful of SSE frames — and
	// every later connection relays faithfully.
	p := proxyFor(t, addr, "truncate:from=0,to=1,p=1,bytes=2000", 13)
	rt, err := route.New(route.Config{
		Backends:      []string{p.URL()},
		Clock:         time.Now,
		BackoffBase:   time.Millisecond,
		ProbeInterval: time.Minute, // keep the prober out of this test
		ProbeJitter:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	gate := httptest.NewServer(rt.Handler())
	t.Cleanup(gate.Close)

	got := collectStream(ctx, t, client.New(gate.URL), req)
	if len(got) != len(truth) {
		t.Fatalf("watched %d events through the partition, want %d", len(got), len(truth))
	}
	for i := range truth {
		if got[i].ID != uint64(i+1) {
			t.Fatalf("event %d has id %d, want %d (sequence not consecutive across the reconnect)", i, got[i].ID, i+1)
		}
		if !bytes.Equal(got[i].Data, truth[i].Data) {
			t.Fatalf("event id %d diverges from the clean watch:\n  got  %s\n  want %s", got[i].ID, got[i].Data, truth[i].Data)
		}
	}
	if n := rt.Metrics().Counters[route.MetricStreamReconnects]; n < 1 {
		t.Errorf("%s = %v, want >= 1 (the cut must have forced a resume)", route.MetricStreamReconnects, n)
	}
	if p.Ordinals() < 2 {
		t.Errorf("proxy saw %d connections, want >= 2 (cut + reconnect)", p.Ordinals())
	}
}

// TestLatencyRuleDelaysButDeliversIntact pins KindLatency: the bytes
// arrive late but arrive right.
func TestLatencyRuleDelaysButDeliversIntact(t *testing.T) {
	_, addr := backend(t, serve.Config{})
	ctx := context.Background()
	truth, err := client.New("http://"+addr).Run(ctx, chaosSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	p := proxyFor(t, addr, "latency:from=0,to=100,p=1,ms=80,jms=40", 9)
	start := time.Now()
	res, err := freshConnClient(p.URL()).Run(ctx, chaosSpec(4))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, truth.Body) {
		t.Error("delayed response is not byte-identical")
	}
	if elapsed < 80*time.Millisecond {
		t.Errorf("elapsed %v < the 80ms latency floor; rule did not fire", elapsed)
	}
}

// TestCloseSeversLiveConnections pins the lifecycle: Close unblocks
// even with a black-holed connection still held open.
func TestCloseSeversLiveConnections(t *testing.T) {
	_, addr := backend(t, serve.Config{})
	p := proxyFor(t, addr, "partition:from=0,to=10,p=1", 1)
	cli := client.New(p.URL(), client.WithHTTPClient(&http.Client{
		Timeout: 200 * time.Millisecond,
	}))
	if _, err := cli.Run(context.Background(), chaosSpec(5)); err == nil {
		t.Fatal("request through a black hole succeeded")
	}
	done := make(chan struct{})
	go func() {
		_ = p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a held connection")
	}
	if p.Ordinals() == 0 {
		t.Error("no connection was ever accepted")
	}
}
