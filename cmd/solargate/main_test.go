package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"solarcore/internal/serve"
)

// syncBuffer is an io.Writer safe to read while run() writes from its
// own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestBadFlagsExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{},                   // -backends missing
		{"-backends", " , "}, // only empty entries
		{"-backends", "http://a", "-vnodes", "0"},
		{"-backends", "http://a", "-hedge-min", "-1s"},
		{"-backends", "http://a", "-hedge-min", "1s", "-hedge-max", "10ms"},
		{"-backends", "http://a", "-retries", "-1"},
		{"-backends", "http://a", "-probe", "0s"},
		{"-backends", "http://a", "-fail", "0"},
		{"-backends", "http://a", "-sweepmax", "0"},
		{"-backends", "http://a", "-grace", "0s"},
		{"-backends", "http://a,http://a"}, // duplicate (route.New rejects)
		{"-backends", "http://a", "-probe-jitter", "1.5"},
	}
	for _, args := range cases {
		var out, errw syncBuffer
		if code := run(context.Background(), args, &out, &errw); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
	}
}

// TestFlagValidationMessages pins that the new robustness flags reject
// bad values with an actionable message, not a silent misconfiguration.
func TestFlagValidationMessages(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-backends", "http://a", "-probe-jitter", "2"}, "at most 0.9"},
	}
	for _, c := range cases {
		var out, errw syncBuffer
		if code := run(context.Background(), c.args, &out, &errw); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", c.args)
		}
		if !strings.Contains(errw.String(), c.want) {
			t.Errorf("run(%v) stderr = %q, want mention of %q", c.args, errw.String(), c.want)
		}
	}
}

func TestUnbindableAddrExitsNonZero(t *testing.T) {
	var out, errw syncBuffer
	code := run(context.Background(),
		[]string{"-backends", "http://127.0.0.1:9", "-addr", "256.0.0.1:1"}, &out, &errw)
	if code == 0 {
		t.Error("run with an unbindable address returned 0")
	}
}

// TestGateEndToEnd boots three real simulation backends and a gate over
// them, then checks the core fleet promise: a run through the gate
// returns byte-identical output to a run asked of a node directly, the
// routing headers name a live backend, and shutdown drains cleanly.
func TestGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full gate lifecycle over real simulations")
	}
	var nodes []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		srv := serve.New(serve.Config{Clock: time.Now})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = srv.Close() })
		nodes = append(nodes, ts)
		urls = append(urls, ts.URL)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-backends", strings.Join(urls, ","),
			"-hedge-min", "2s", "-hedge-max", "2s", // fixed and late: this test wants pure primary routing
			"-grace", "5s",
		}, &out, &errw)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("gate never announced its address; stdout %q stderr %q", out.String(), errw.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "solargate: listening on "); ok {
				base = strings.TrimSpace(strings.Fields(rest)[0])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	const spec = `{"step_min":8}`
	gresp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("gate run: %v", err)
	}
	gateBody, _ := io.ReadAll(gresp.Body)
	_ = gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("gate run status = %d: %s", gresp.StatusCode, gateBody)
	}
	backend := gresp.Header.Get("X-Gate-Backend")
	found := false
	for _, u := range urls {
		if u == backend {
			found = true
		}
	}
	if !found {
		t.Errorf("X-Gate-Backend = %q names no fleet node %v", backend, urls)
	}
	if route := gresp.Header.Get("X-Gate"); route != "primary" {
		t.Errorf("X-Gate = %q, want primary", route)
	}

	// Determinism is the fleet contract: any node answers the same spec
	// with the same bytes, so gate output must match a direct ask.
	dresp, err := http.Post(urls[0]+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	directBody, _ := io.ReadAll(dresp.Body)
	_ = dresp.Body.Close()
	if !bytes.Equal(gateBody, directBody) {
		t.Errorf("gate and direct bodies differ:\ngate:   %s\ndirect: %s", gateBody, directBody)
	}

	// A sweep through the gate fans out and reassembles in order.
	sweep := `{"runs":[{"step_min":8},{"step_min":8,"day":1},{"step_min":8,"day":2}]}`
	sresp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatalf("gate sweep: %v", err)
	}
	sweepBody, _ := io.ReadAll(sresp.Body)
	_ = sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("gate sweep status = %d: %s", sresp.StatusCode, sweepBody)
	}
	if n := strings.Count(string(sweepBody), `"hash"`); n != 3 {
		t.Errorf("sweep returned %d cells, want 3: %s", n, sweepBody)
	}

	// Fleet metrics carry both route_* and the nodes' serve_* families.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("gate metrics: %v", err)
	}
	metricsBody, _ := io.ReadAll(mresp.Body)
	_ = mresp.Body.Close()
	for _, want := range []string{"route_requests_total", "serve_requests_total"} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("fleet metrics missing %s", want)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stderr %q", code, errw.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gate did not exit after cancellation")
	}
	got := out.String()
	for _, want := range []string{"draining", "drained, exiting"} {
		if !strings.Contains(got, want) {
			t.Errorf("shutdown transcript missing %q:\n%s", want, got)
		}
	}
}
