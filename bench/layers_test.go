package main

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/serve"
	"solarcore/internal/sim"
	"solarcore/internal/store"
	"solarcore/internal/stream"
)

// Layer micro-benchmarks on the default spec (AZ, Jul, HM2, MPPT&Opt,
// day 0, step 1), one per layer of the traced run. Run them with
//
//	go test -run '^$' -bench . -benchmem
//
// from this directory. They call the functions the traced run spans. A
// traced layer number and its micro-benchmark differ by the specs they
// run on and by cache warmth: a micro-benchmark repeats one call in a hot
// loop, the traced run times each call once, amid the other layers.

var defaultSpec = solarcore.RunSpec{}.Normalized()

// defaultDay builds the default spec's weather trace and solar day.
func defaultDay(b *testing.B) (*atmos.Trace, *sim.SolarDay) {
	b.Helper()
	site, season, _, err := resolve(defaultSpec)
	if err != nil {
		b.Fatal(err)
	}
	tr := atmos.Generate(site, season, atmos.GenConfig{Day: defaultSpec.Day})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, defaultSpec.Panels)
	if err != nil {
		b.Fatal(err)
	}
	return tr, day
}

// defaultRun returns the default spec's runner, result and marshaled
// body.
func defaultRun(b *testing.B) (*solarcore.Runner, *solarcore.DayResult, []byte) {
	b.Helper()
	body, r, err := servePath(context.Background(), defaultSpec, untraced)
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r, res, body
}

var benchSink any

func BenchmarkSpecRun(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for range b.N {
		res, err := defaultSpec.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func BenchmarkWeather(b *testing.B) {
	site, season, _, err := resolve(defaultSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		benchSink = atmos.Generate(site, season, atmos.GenConfig{Day: defaultSpec.Day})
	}
}

func BenchmarkDayBuild(b *testing.B) {
	tr, _ := defaultDay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, defaultSpec.Panels)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = day
	}
}

// BenchmarkPVMPP is one Array.MPP solve, cycling through the default
// day's panel environments as the day build does.
func BenchmarkPVMPP(b *testing.B) {
	tr, day := defaultDay(b)
	envs := make([]pv.Env, len(tr.Samples))
	for i, s := range tr.Samples {
		envs[i] = day.EnvAt(s.Minute)
	}
	arr := pv.NewArray(pv.BP3180N(), 1, defaultSpec.Panels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		mppSink = arr.MPP(envs[i%len(envs)])
	}
}

// BenchmarkPolicyRun is Runner.Run on a day built beforehand.
func BenchmarkPolicyRun(b *testing.B) {
	r, _, _ := defaultRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		res, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func BenchmarkMarshal(b *testing.B) {
	_, res, _ := defaultRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		body, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = body
	}
}

// BenchmarkStorePut persists the default result under a fresh key each
// time, fsync included.
func BenchmarkStorePut(b *testing.B) {
	_, _, body := defaultRun(b)
	st, err := store.Open(store.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if err := st.Put(keys[i], body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet reads and CRC-verifies the default result.
func BenchmarkStoreGet(b *testing.B) {
	_, _, body := defaultRun(b)
	st, err := store.Open(store.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	key := defaultSpec.Hash()
	if err := st.Put(key, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		got, ok := st.Get(key)
		if !ok {
			b.Fatal("stored record missed")
		}
		benchSink = got
	}
}

// BenchmarkServeResultHit is serve.Server.Result on a cached key.
func BenchmarkServeResultHit(b *testing.B) {
	ctx := context.Background()
	srv := serve.New(serve.Config{})
	defer func() { _ = srv.Close() }()
	if _, _, err := srv.Result(ctx, defaultSpec, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		body, _, err := srv.Result(ctx, defaultSpec, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = body
	}
}

// BenchmarkStreamReplay feeds the default run's stored event tail
// through Hub.Replay and drains it with one subscriber.
func BenchmarkStreamReplay(b *testing.B) {
	ctx := context.Background()
	tail, err := eventTail(ctx, defaultSpec)
	if err != nil {
		b.Fatal(err)
	}
	hub := stream.NewHub(stream.Config{})
	key := defaultSpec.Hash()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		types, _, err := replayTail(ctx, hub, key, tail)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = types
	}
}
