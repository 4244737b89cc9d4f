package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/store"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stubbed builds a Server whose runner returns a canned result and
// counts invocations.
func stubbed(t *testing.T, cfg Config, label string) (*Server, *int) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { _ = s.Close() })
	runs := 0
	s.runSpec = func(context.Context, solarcore.RunSpec, obs.Observer) (*solarcore.DayResult, error) {
		runs++
		return fakeResult(label), nil
	}
	return s, &runs
}

// TestStoreBackedRestartReplaysByteIdentically is the crash-recovery
// contract at the package level: results computed before a "crash" (a
// server discarded without Close, store reopened cold) are served
// byte-identically by the next server generation without re-simulating.
func TestStoreBackedRestartReplaysByteIdentically(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := openStoreT(t, dir)
	s1, runs1 := stubbed(t, Config{Store: st}, "gen1")
	body1, src1, err := s1.Result(ctx, fastSpec, 0)
	if err != nil || src1 != obs.CacheMiss {
		t.Fatalf("first Result = %q, %v; want a miss", src1, err)
	}
	if *runs1 != 1 {
		t.Fatalf("runs = %d, want 1", *runs1)
	}
	// No store.Close, no server drain: the process just dies.

	st2 := openStoreT(t, dir)
	s2 := New(Config{Store: st2, CacheEntries: 1}) // tiny mem front
	t.Cleanup(func() { _ = s2.Close() })
	s2.runSpec = func(context.Context, solarcore.RunSpec, obs.Observer) (*solarcore.DayResult, error) {
		t.Error("restarted server re-simulated a durably cached spec")
		return fakeResult("gen2"), nil
	}
	body2, src2, err := s2.Result(ctx, fastSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != obs.CacheHit {
		t.Errorf("post-restart disposition = %q, want %q", src2, obs.CacheHit)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("post-restart body differs:\n%s\nvs\n%s", body1, body2)
	}
}

// TestStoreCatchesMemEviction pins the layering: a result evicted from
// the memory LRU is replayed from disk, not recomputed.
func TestStoreCatchesMemEviction(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	s, runs := stubbed(t, Config{Store: st, CacheEntries: 1}, "layered")
	ctx := context.Background()

	specB := fastSpec
	specB.Day = 2
	if _, _, err := s.Result(ctx, fastSpec, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Result(ctx, specB, 0); err != nil { // evicts fastSpec from mem
		t.Fatal(err)
	}
	body, src, err := s.Result(ctx, fastSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src != obs.CacheHit || *runs != 2 {
		t.Errorf("evicted spec: src = %q, runs = %d; want hit from disk, 2 runs", src, *runs)
	}
	if !strings.Contains(string(body), "layered") {
		t.Errorf("replayed body = %s", body)
	}
}

// TestRunResponseCarriesBodySum pins the wire-integrity satellite: every
// /v1/run 200 declares a checksum the client can verify.
func TestRunResponseCarriesBodySum(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSpec = func(context.Context, solarcore.RunSpec, obs.Observer) (*solarcore.DayResult, error) {
		return fakeResult("summed"), nil
	}
	resp, body := postJSON(t, ts, "/v1/run", `{"site":"AZ","season":"Jul","mix":"HM2","step_min":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	sum := resp.Header.Get(client.HeaderBodySum)
	if sum == "" {
		t.Fatal("no X-Body-Sum on a /v1/run success")
	}
	if err := client.CheckBodySum(sum, body); err != nil {
		t.Errorf("declared sum does not verify: %v", err)
	}
}
