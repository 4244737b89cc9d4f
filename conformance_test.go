package solarcore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/atmos"
	"solarcore/internal/exp"
	"solarcore/internal/obs"
	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/sim"
	"solarcore/internal/store"
	"solarcore/internal/stream"
	"solarcore/internal/workload"
)

// conformanceFaults is the faulted row's schedule: a cloud burst and a
// core failure, so the row reaches the fault runtime, the watchdog and
// the allocators' level caps.
const conformanceFaults = "cloud:t0=600,t1=720,i=0.9;core-fail:t0=650,t1=760,i=0.5"

// conformanceNode is one solard: a serve.Server behind an httptest front
// end, with an optional durable store and stream hub.
type conformanceNode struct {
	srv *serve.Server
	ts  *httptest.Server
	c   *client.Client
}

func newConformanceNode(t *testing.T, dir string) *conformanceNode {
	t.Helper()
	cfg := serve.Config{Stream: stream.NewHub(stream.Config{})}
	if dir != "" {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	n := &conformanceNode{srv: serve.New(cfg)}
	n.ts = httptest.NewServer(n.srv.Handler())
	n.c = client.New(n.ts.URL)
	t.Cleanup(func() {
		n.ts.Close()
		_ = n.srv.Close()
	})
	return n
}

// streamLines watches spec's events over /v1/stream and returns them as
// JSONL, one line per event, as a JSONLSink writes them.
func streamLines(t *testing.T, c *client.Client, spec solarcore.RunSpec) string {
	t.Helper()
	st, err := c.Stream(context.Background(), client.StreamRequest{RunRequest: client.RunRequest{RunSpec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	var b strings.Builder
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			return b.String()
		}
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		b.Write(ev.Data)
		b.WriteByte('\n')
	}
}

// runEnd returns the run_end line of a JSONL event stream, the last.
func runEnd(t *testing.T, jsonl string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(jsonl, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"type":"`+obs.TypeRunEnd+`"`) {
		t.Fatalf("last event is not a run_end: %.120s", last)
	}
	return last
}

// TestServingConformance is the one byte-compare table of every path
// that serves result bytes. For each spec, the library's RunSpec.Run
// is the reference, and these must equal it byte for byte: solard's
// /v1/run, a /v1/sweep cell, solargate's /v1/run over two nodes, a
// restarted node's answer from its durable store (a cache hit, no new
// run), the streamed event sequence with its run_end (live, and
// replayed from the restarted store), and the exp.Lab cell of the same
// spec. The table pins no hash: it holds on any engine version, so a
// version bump shows every path serving the new bytes.
func TestServingConformance(t *testing.T) {
	ctx := context.Background()
	l1, err := workload.MixByName("L1")
	if err != nil {
		t.Fatal(err)
	}
	clean := exp.NewLab(exp.Options{StepMin: 8})
	faulted := exp.NewLab(exp.Options{StepMin: 8, Faults: conformanceFaults})
	base := solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 8}
	with := func(set func(*solarcore.RunSpec)) solarcore.RunSpec {
		s := base
		set(&s)
		return s
	}
	rows := []struct {
		name string
		spec solarcore.RunSpec
		cell func() *sim.DayResult
	}{
		{solarcore.PolicyOpt, with(func(s *solarcore.RunSpec) { s.Policy = solarcore.PolicyOpt }),
			func() *sim.DayResult { return clean.MPPT(atmos.CO, atmos.Oct, l1, solarcore.PolicyOpt) }},
		{solarcore.PolicyRR, with(func(s *solarcore.RunSpec) { s.Policy = solarcore.PolicyRR }),
			func() *sim.DayResult { return clean.MPPT(atmos.CO, atmos.Oct, l1, solarcore.PolicyRR) }},
		{solarcore.PolicyIC, with(func(s *solarcore.RunSpec) { s.Policy = solarcore.PolicyIC }),
			func() *sim.DayResult { return clean.MPPT(atmos.CO, atmos.Oct, l1, solarcore.PolicyIC) }},
		{"Fixed50", with(func(s *solarcore.RunSpec) { s.FixedW = 50 }),
			func() *sim.DayResult { return clean.Fixed(atmos.CO, atmos.Oct, l1, 50) }},
		{"Battery80", with(func(s *solarcore.RunSpec) { s.BatteryEff = 0.8 }),
			func() *sim.DayResult { return clean.Battery(atmos.CO, atmos.Oct, l1, 0.8) }},
		{"Opt/faulted", with(func(s *solarcore.RunSpec) { s.Faults = conformanceFaults }),
			func() *sim.DayResult { return faulted.MPPT(atmos.CO, atmos.Oct, l1, solarcore.PolicyOpt) }},
	}

	// The reference: the library run, its result JSON and its events.
	want := make([][]byte, len(rows))
	wantEvents := make([]string, len(rows))
	for i, row := range rows {
		var buf bytes.Buffer
		sink := solarcore.NewJSONLSink(&buf)
		res, err := row.spec.Run(ctx, solarcore.WithObserver(sink))
		if err != nil {
			t.Fatalf("%s: library run: %v", row.name, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
		wantEvents[i] = buf.String()
	}
	if !bytes.Contains(want[len(rows)-1], []byte(`"Injected":2`)) {
		t.Fatalf("the faulted row injected no faults: %.300s", want[len(rows)-1])
	}

	// The serving paths, each on nodes of its own so every path runs
	// the spec itself instead of replaying another path's cache.
	dir := t.TempDir()
	streamed := newConformanceNode(t, dir)
	direct := newConformanceNode(t, "")
	swept := newConformanceNode(t, "")
	gateNodes := []string{newConformanceNode(t, "").ts.URL, newConformanceNode(t, "").ts.URL}
	rt, err := route.New(route.Config{Backends: gateNodes, Clock: time.Now, HedgeMin: time.Minute, HedgeMax: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	gateTS := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		gateTS.Close()
		_ = rt.Close()
	})
	gate := client.New(gateTS.URL)

	// A sweep of every row at once, fanned over one node's pool.
	sweep := client.SweepRequest{}
	for _, row := range rows {
		sweep.Runs = append(sweep.Runs, client.RunRequest{RunSpec: row.spec})
	}
	sr, err := swept.c.Sweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(rows) {
		t.Fatalf("sweep returned %d items for %d runs", len(sr.Results), len(rows))
	}

	// Live streams fill the streamed node's store with each row's
	// result and event tail; the restarted node reopens it.
	liveEvents := make([]string, len(rows))
	for i, row := range rows {
		liveEvents[i] = streamLines(t, streamed.c, row.spec)
	}
	restarted := newConformanceNode(t, dir)

	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			check := func(path string, got []byte) {
				t.Helper()
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s bytes differ from RunSpec.Run:\n got: %.200s\nwant: %.200s", path, got, want[i])
				}
			}
			res, err := direct.c.Run(ctx, client.RunRequest{RunSpec: row.spec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != obs.CacheMiss {
				t.Errorf("solard X-Cache %q, want %q", res.Cache, obs.CacheMiss)
			}
			check("solard /v1/run", res.Body)

			item := sr.Results[i]
			if item.Error != "" || item.Hash != row.spec.Hash() {
				t.Errorf("sweep item: hash %s error %q, want hash %s", item.Hash, item.Error, row.spec.Hash())
			}
			check("/v1/sweep cell", item.Result)

			res, err = gate.Run(ctx, client.RunRequest{RunSpec: row.spec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend == "" {
				t.Error("solargate named no backend")
			}
			check("solargate /v1/run", res.Body)

			res, err = restarted.c.Run(ctx, client.RunRequest{RunSpec: row.spec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != obs.CacheHit {
				t.Errorf("restarted node X-Cache %q, want %q from its store", res.Cache, obs.CacheHit)
			}
			check("store replay after restart", res.Body)

			if liveEvents[i] != wantEvents[i] {
				t.Error("live stream events differ from the library run's JSONL")
			}
			if got, w := runEnd(t, liveEvents[i]), runEnd(t, wantEvents[i]); got != w {
				t.Errorf("live run_end differs:\n got: %s\nwant: %s", got, w)
			}
			if replayed := streamLines(t, restarted.c, row.spec); replayed != wantEvents[i] {
				t.Error("stream replayed from the restarted store differs from the library run's JSONL")
			}

			cell, err := json.Marshal(row.cell())
			if err != nil {
				t.Fatal(err)
			}
			check("exp.Lab cell", cell)
		})
	}
}
