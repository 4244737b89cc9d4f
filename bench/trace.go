package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/atmos"
	"solarcore/internal/exp"
	"solarcore/internal/fault"
	"solarcore/internal/mppt"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/sim"
	"solarcore/internal/store"
	"solarcore/internal/stream"
)

// The traced run takes specs from a workload's own inputs and, one at a
// time, calls each layer's public functions with a span around every
// call. It runs in this process, separately from the measured phase, so
// that spans never slow the end-to-end numbers. Every span records its
// name, start, end, parent and operation; a layer's self time is its
// span's duration minus its children's.

// span is one timed call of the traced run. Times are nanoseconds since
// the traced run began; Parent 0 marks an operation's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanFunc runs fn as the layer call name: traced or not.
type spanFunc func(name string, fn func() error) error

// untraced runs fn without recording anything.
func untraced(_ string, fn func() error) error { return fn() }

// tracer keeps the spans of one traced run in memory; they are written
// out when the run ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // IDs of the open spans, innermost last
}

func (t *tracer) do(name string, fn func() error) error {
	s := span{Op: t.op, ID: len(t.spans) + 1, Name: name, Start: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[s.ID-1].End = int64(time.Since(t.t0))
	return err
}

// times returns, per operation and span name, the span's duration and
// self time in milliseconds; a name repeated within an operation gets
// the median of its spans.
func (t *tracer) times() (dur, self []map[string]float64) {
	ops := 0
	for _, s := range t.spans {
		ops = max(ops, s.Op+1)
	}
	selfByID := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		d := ms(time.Duration(s.End - s.Start))
		selfByID[s.ID] += d
		selfByID[s.Parent] -= d
	}
	durs, selfs := make([]map[string][]float64, ops), make([]map[string][]float64, ops)
	for i := range durs {
		durs[i], selfs[i] = map[string][]float64{}, map[string][]float64{}
	}
	for _, s := range t.spans {
		durs[s.Op][s.Name] = append(durs[s.Op][s.Name], ms(time.Duration(s.End-s.Start)))
		selfs[s.Op][s.Name] = append(selfs[s.Op][s.Name], selfByID[s.ID])
	}
	dur, self = make([]map[string]float64, ops), make([]map[string]float64, ops)
	for i := range dur {
		dur[i], self[i] = map[string]float64{}, map[string]float64{}
		for name, v := range durs[i] {
			dur[i][name] = median(v)
			self[i][name] = median(selfs[i][name])
		}
	}
	return dur, self
}

// hitRepeats is how often the traced run repeats each cached call.
const hitRepeats = 8

// hashSink keeps the traced hash call from being optimized away.
var hashSink string

// servePath is serve's cache-miss path taken one public layer call at a
// time, in the order serve makes them: validate, hash, weather, day
// build, policy run and marshal. It materializes the spec exactly as
// RunSpec.Runner does; the traced run checks that its bytes equal the
// served ones.
func servePath(ctx context.Context, spec solarcore.RunSpec, sp spanFunc) (body []byte, r *solarcore.Runner, err error) {
	if err = sp("spec.validate", spec.Validate); err != nil {
		return nil, nil, err
	}
	_ = sp("spec.hash", func() error { hashSink = spec.Hash(); return nil })
	n := spec.Normalized()
	site, season, mix, err := resolve(n)
	if err != nil {
		return nil, nil, err
	}
	faults, err := fault.ParseSpec(n.Faults)
	if err != nil {
		return nil, nil, err
	}
	var tr *atmos.Trace
	_ = sp("atmos.generate", func() error {
		tr = atmos.Generate(site, season, atmos.GenConfig{Day: n.Day})
		return nil
	})
	var day *sim.SolarDay
	if err = sp("sim.day_build", func() (e error) {
		day, e = sim.NewSolarDay(tr, pv.BP3180N(), 1, n.Panels)
		return e
	}); err != nil {
		return nil, nil, err
	}
	var res *solarcore.DayResult
	if err = sp("sim.run", func() (e error) {
		opts := []solarcore.RunnerOption{solarcore.WithContext(ctx), solarcore.WithFaults(faults)}
		switch {
		case n.FixedW > 0:
			opts = append(opts, solarcore.WithFixedBudget(n.FixedW))
		case n.BatteryEff > 0:
			opts = append(opts, solarcore.WithBattery(n.BatteryEff))
		default:
			opts = append(opts, solarcore.WithPolicy(n.Policy))
		}
		if r, e = solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix, StepMin: n.StepMin}, opts...); e != nil {
			return e
		}
		res, e = r.Run()
		return e
	}); err != nil {
		return nil, nil, err
	}
	err = sp("serve.marshal", func() (e error) {
		body, e = json.Marshal(res)
		return e
	})
	return body, r, err
}

// servePathLayers are the layer spans inside serve.path whose self times
// should add up to a served miss.
var servePathLayers = []string{"spec.validate", "spec.hash", "atmos.generate", "sim.day_build", "sim.run", "serve.marshal"}

// traceRig is the in-process serving stack the traced run calls into.
type traceRig struct {
	plain    *client.Client // solard core over loopback HTTP
	gate     *client.Client // the route layer in front of plain
	direct   *serve.Server  // serve.Server.Result without HTTP
	watch    *client.Client // solard core with a durable store and a stream hub
	store    *store.Store   // bare store for Put/Get
	storeDir string
	hub      *stream.Hub // bare hub for Replay
	closers  []func() error
}

func newTraceRig(work string) (*traceRig, error) {
	rig := &traceRig{storeDir: filepath.Join(work, "trace-store"), hub: stream.NewHub(stream.Config{})}
	plain := serve.New(serve.Config{Clock: time.Now})
	plainTS := httptest.NewServer(plain.Handler())
	rig.closers = append(rig.closers, plain.Close, closeTS(plainTS))
	rig.plain = client.New(plainTS.URL)
	rt, err := route.New(route.Config{Backends: []string{plainTS.URL}, Clock: time.Now})
	if err != nil {
		return nil, errors.Join(err, rig.close())
	}
	gateTS := httptest.NewServer(rt.Handler())
	rig.closers = append(rig.closers, rt.Close, closeTS(gateTS))
	rig.gate = client.New(gateTS.URL)
	rig.direct = serve.New(serve.Config{Clock: time.Now})
	rig.closers = append(rig.closers, rig.direct.Close)
	watchStore, err := store.Open(store.Config{Dir: filepath.Join(work, "trace-watch"), Clock: time.Now})
	if err != nil {
		return nil, errors.Join(err, rig.close())
	}
	watch := serve.New(serve.Config{Store: watchStore, Stream: stream.NewHub(stream.Config{}), Clock: time.Now})
	watchTS := httptest.NewServer(watch.Handler())
	rig.closers = append(rig.closers, watchStore.Close, watch.Close, closeTS(watchTS))
	rig.watch = client.New(watchTS.URL)
	// The bare store is closed by tracedRun, which then times reopening it.
	if rig.store, err = store.Open(store.Config{Dir: rig.storeDir, Clock: time.Now}); err != nil {
		return nil, errors.Join(err, rig.close())
	}
	return rig, nil
}

func closeTS(ts *httptest.Server) func() error { return func() error { ts.Close(); return nil } }

// close releases everything, most recently opened first.
func (rig *traceRig) close() error {
	var errs []error
	for i := len(rig.closers) - 1; i >= 0; i-- {
		errs = append(errs, rig.closers[i]())
	}
	rig.closers = nil
	return errors.Join(errs...)
}

// opValues are the per-operation readings the traced run takes besides
// spans.
type opValues struct {
	c1MissMs     float64 // served miss over HTTP at one client, untraced
	untracedMs   float64 // serve path without spans
	allocs       float64 // sim.run allocations
	samples      float64 // weather samples: MPP solves and Track calls
	firstEventMs float64 // /v1/stream replay: first event
	gaps         float64 // gap frames seen by both replays
}

// traceOp traces one spec through every layer.
func traceOp(ctx context.Context, rig *traceRig, tr *tracer, lab *labStats, i int, spec solarcore.RunSpec) (opValues, error) {
	var v opValues
	key := spec.Hash()
	n := spec.Normalized()

	t0 := time.Now()
	ref, err := rig.plain.Run(ctx, client.RunRequest{RunSpec: spec})
	if err != nil {
		return v, err
	}
	v.c1MissMs = ms(time.Since(t0))
	if ref.Cache != obs.CacheMiss {
		return v, fmt.Errorf("traced spec served as %q, want a fresh miss", ref.Cache)
	}
	// The untraced serve path runs before the traced one on even
	// operations and after it on odd ones, so neither order is favoured.
	untracedPath := func() error {
		t0 := time.Now()
		body, _, err := servePath(ctx, spec, untraced)
		v.untracedMs = ms(time.Since(t0))
		if err != nil {
			return err
		}
		return verifyBody(spec, body, ref.Body)
	}
	if i%2 == 0 {
		if err := untracedPath(); err != nil {
			return v, err
		}
	}

	// Preparation outside the spans: the run's event tail, a first live
	// watch that persists it, the lab with its day built, and the
	// controller and panel environments of the per-decision layers.
	tail, err := eventTail(ctx, spec)
	if err != nil {
		return v, err
	}
	s, err := rig.watch.Stream(ctx, client.StreamRequest{RunRequest: client.RunRequest{RunSpec: spec}})
	if err != nil {
		return v, err
	}
	liveTypes, err := readStream(s, nil)
	if err != nil {
		return v, err
	}
	if err := verifyStream(liveTypes, len(liveTypes)); err != nil {
		return v, err
	}
	l := exp.NewLab(exp.Options{Day: n.Day})
	site, season, mix, err := resolve(n)
	if err != nil {
		return v, err
	}
	l.Day(site, season)
	day, err := sim.NewSolarDay(atmos.Generate(site, season, atmos.GenConfig{Day: n.Day}), pv.BP3180N(), 1, n.Panels)
	if err != nil {
		return v, err
	}
	envs := make([]pv.Env, len(day.Trace.Samples))
	for j, smp := range day.Trace.Samples {
		envs[j] = day.EnvAt(smp.Minute)
	}
	v.samples = float64(len(envs))
	ctrl, err := newController(day, mix, n.Policy)
	if err != nil {
		return v, err
	}
	arr := pv.NewArray(pv.BP3180N(), 1, n.Panels)

	tr.op = i
	var runner *solarcore.Runner
	err = tr.do("op", func() error {
		// Each call leaves what it produced in body; the check runs outside
		// the span, so that spans time the layer alone. The closures are
		// func() error on purpose: the lint gate's call graph links a
		// function value to every dynamic call of its signature, and one
		// of func() ([]byte, error) would join serve's flight-group calls,
		// putting this file on serve's hot path.
		var body []byte
		call := func(name string, fn func() error) error {
			body = nil
			if err := tr.do(name, fn); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := verifyBody(spec, body, ref.Body); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		}
		if err := call("serve.path", func() (e error) {
			body, runner, e = servePath(ctx, spec, tr.do)
			return e
		}); err != nil {
			return err
		}
		// serve.Server.Result in process: one miss, then hits; the cached
		// key also over loopback HTTP, direct and through the route layer.
		// Cached calls are cheap, so each repeats and its median counts.
		result := func(want string) (e error) {
			var src string
			body, src, e = rig.direct.Result(ctx, spec, 0)
			if e == nil && src != want {
				e = fmt.Errorf("served %q, want %q", src, want)
			}
			return e
		}
		served := func(cli *client.Client) error {
			res, err := cli.Run(ctx, client.RunRequest{RunSpec: spec})
			if err != nil {
				return err
			}
			if res.Cache != obs.CacheHit {
				return fmt.Errorf("served %q, want a hit", res.Cache)
			}
			body = res.Body
			return nil
		}
		if err := call("serve.result_miss", func() error { return result(obs.CacheMiss) }); err != nil {
			return err
		}
		for range hitRepeats {
			if err := call("serve.result_hit", func() error { return result(obs.CacheHit) }); err != nil {
				return err
			}
			if err := call("client.run", func() error { return served(rig.plain) }); err != nil {
				return err
			}
			if err := call("route.run", func() error { return served(rig.gate) }); err != nil {
				return err
			}
		}
		if err := tr.do("store.put", func() error { return rig.store.Put(key, ref.Body) }); err != nil {
			return err
		}
		if err := call("store.get", func() error {
			b, ok := rig.store.Get(key)
			if !ok {
				return errors.New("missed a record just put")
			}
			body = b
			return nil
		}); err != nil {
			return err
		}
		var types []string
		if err := tr.do("stream.replay", func() (e error) {
			var gaps float64
			types, gaps, e = replayTail(ctx, rig.hub, key, tail)
			v.gaps += gaps
			return e
		}); err != nil {
			return err
		}
		if err := verifyStream(types, len(liveTypes)); err != nil {
			return fmt.Errorf("stream.replay: %w", err)
		}
		if err := tr.do("stream.watch", func() error {
			t0 := time.Now()
			s, err := rig.watch.Stream(ctx, client.StreamRequest{RunRequest: client.RunRequest{RunSpec: spec}})
			if err != nil {
				return err
			}
			types, err = readStream(s, func() { v.firstEventMs = ms(time.Since(t0)) })
			return err
		}); err != nil {
			return err
		}
		for _, t := range types {
			if t == obs.TypeGap {
				v.gaps++
			}
		}
		if err := verifyStream(types, len(liveTypes)); err != nil {
			return fmt.Errorf("stream.watch: %w", err)
		}
		if err := tr.do("exp.cell", func() error { return labCell(l, site, season, mix, n) }); err != nil {
			return err
		}
		_ = tr.do("mppt.track", func() error {
			for j, env := range envs {
				trackSink = ctrl.Track(env, day.Trace.Samples[j].Minute)
			}
			return nil
		})
		return tr.do("pv.mpp", func() error {
			for _, env := range envs {
				mppSink = arr.MPP(env)
			}
			return nil
		})
	})
	if err != nil {
		return v, err
	}
	if i%2 == 1 {
		if err := untracedPath(); err != nil {
			return v, err
		}
	}
	var runErr error
	v.allocs = testing.AllocsPerRun(1, func() {
		if _, err := runner.Run(); err != nil {
			runErr = err
		}
	})
	lab.add(l.Metrics())
	return v, runErr
}

// Sinks keep the per-decision calls from being optimized away.
var (
	trackSink mppt.Result
	mppSink   pv.MPP
)

func resolve(n solarcore.RunSpec) (atmos.Site, atmos.Season, solarcore.Mix, error) {
	site, err := atmos.SiteByCode(n.Site)
	if err != nil {
		return site, 0, solarcore.Mix{}, err
	}
	season, err := atmos.SeasonByName(n.Season)
	if err != nil {
		return site, season, solarcore.Mix{}, err
	}
	mix, err := solarcore.MixByName(n.Mix)
	return site, season, mix, err
}

// newController builds the MPPT controller a tracking run of the spec
// would use (the headline policy for the fixed and battery baselines).
func newController(day *sim.SolarDay, mix solarcore.Mix, policy string) (*solarcore.Controller, error) {
	if policy == "" {
		policy = solarcore.PolicyOpt
	}
	chip, err := solarcore.NewChip(solarcore.DefaultChip())
	if err != nil {
		return nil, err
	}
	if err := mix.Apply(chip); err != nil {
		return nil, err
	}
	return solarcore.NewController(power.NewCircuit(day.Gen), chip, policy, solarcore.ControllerConfig{})
}

// labCell runs the spec as an exp.Lab grid cell.
func labCell(l *exp.Lab, site atmos.Site, season atmos.Season, mix solarcore.Mix, n solarcore.RunSpec) error {
	var r *sim.DayResult
	switch {
	case n.FixedW > 0:
		r = l.Fixed(site, season, mix, n.FixedW)
	case n.BatteryEff > 0:
		r = l.Battery(site, season, mix, n.BatteryEff)
	default:
		r = l.MPPT(site, season, mix, n.Policy)
	}
	if r == nil {
		return errors.New("lab cell returned no result")
	}
	return nil
}

// eventTail runs spec with a stream publisher attached and returns the
// JSONL event tail serve would persist for it.
func eventTail(ctx context.Context, spec solarcore.RunSpec) ([]byte, error) {
	topic, _ := stream.NewHub(stream.Config{}).Ensure(spec.Hash())
	if _, err := spec.Run(ctx, solarcore.WithObserver(stream.NewPublisher(topic))); err != nil {
		return nil, err
	}
	tail := topic.TailJSONL()
	topic.CloseWith(nil)
	return tail, nil
}

// replayTail feeds a stored tail through Hub.Replay and drains it with
// one subscriber, returning the event types and the gap frames seen.
func replayTail(ctx context.Context, hub *stream.Hub, key string, tail []byte) ([]string, float64, error) {
	topic, _ := hub.Ensure(key)
	sub := topic.Subscribe(0)
	defer sub.Close()
	hub.Replay(topic, tail)
	var types []string
	gaps := 0.0
	for {
		fr, err := sub.Next(ctx)
		if errors.Is(err, io.EOF) {
			return types, gaps, nil
		}
		if err != nil {
			return types, gaps, err
		}
		if fr.Type == obs.TypeGap {
			gaps++
		}
		types = append(types, fr.Type)
	}
}

// labStats pools the metrics of several exp.Labs.
type labStats struct {
	labs, days, cellSum, cellCount float64
}

func (s *labStats) add(snap obs.Snapshot) {
	s.labs++
	s.days += snap.Counters[exp.MetricLabDays]
	h := snap.Histograms[exp.MetricLabCellMs]
	s.cellSum += h.Sum
	s.cellCount += float64(h.Count)
}

// cellMs is the mean wall time of a simulated cell.
func (s *labStats) cellMs() float64 { return ratio(s.cellSum, s.cellCount) }

// daysPerLab is the mean count of solar days a lab built.
func (s *labStats) daysPerLab() float64 { return ratio(s.days, s.labs) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun traces specs one at a time and returns the per-layer
// metrics and the spans.
func tracedRun(ctx context.Context, work string, specs []solarcore.RunSpec) (map[string]float64, []span, error) {
	rig, err := newTraceRig(work)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{t0: time.Now()}
	var lab labStats
	vals := make([]opValues, 0, len(specs))
	var errs []error
	for i, spec := range specs {
		v, err := traceOp(ctx, rig, tr, &lab, i, spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("traced operation %d (%s): %w", i, spec.Canonical(), err))
			continue
		}
		vals = append(vals, v)
	}
	if err := rig.store.Close(); err != nil {
		errs = append(errs, err)
	}
	var warm []float64
	for range 3 {
		t0 := time.Now()
		st, err := store.Open(store.Config{Dir: rig.storeDir})
		if err != nil {
			errs = append(errs, err)
			break
		}
		warm = append(warm, ms(time.Since(t0)))
		if st.Len() != len(specs) {
			errs = append(errs, fmt.Errorf("warm start found %d records, want %d", st.Len(), len(specs)))
		}
		errs = append(errs, st.Close())
	}
	errs = append(errs, rig.close())
	if err := errors.Join(errs...); err != nil {
		return nil, tr.spans, err
	}

	dur, self := tr.times()
	perOp := func(f func(i int) float64) float64 {
		v := make([]float64, len(vals))
		for i := range vals {
			v[i] = f(i)
		}
		return median(v)
	}
	selfMs := func(name string) float64 { return perOp(func(i int) float64 { return self[i][name] }) }
	layerSum := func(i int, names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += self[i][n]
		}
		return sum
	}
	gaps := 0.0
	for _, v := range vals {
		gaps += v.gaps
	}
	traced := perOp(func(i int) float64 { return dur[i]["serve.path"] })
	plain := perOp(func(i int) float64 { return vals[i].untracedMs })
	return map[string]float64{
		"spec.validate_us":       1000 * selfMs("spec.validate"),
		"spec.hash_us":           1000 * selfMs("spec.hash"),
		"atmos.generate_ms":      selfMs("atmos.generate"),
		"sim.day_build_ms":       selfMs("sim.day_build"),
		"pv.mpp_us":              perOp(func(i int) float64 { return 1000 * dur[i]["pv.mpp"] / vals[i].samples }),
		"sim.run_ms":             selfMs("sim.run"),
		"sim.run_allocs":         perOp(func(i int) float64 { return vals[i].allocs }),
		"mppt.track_us":          perOp(func(i int) float64 { return 1000 * dur[i]["mppt.track"] / vals[i].samples }),
		"serve.marshal_us":       1000 * selfMs("serve.marshal"),
		"serve.result_miss_ms":   selfMs("serve.result_miss"),
		"serve.fill_overhead_ms": perOp(func(i int) float64 { return dur[i]["serve.result_miss"] - layerSum(i, servePathLayers[1:]...) }),
		"serve.result_hit_us":    1000 * selfMs("serve.result_hit"),
		"client.wire_us":         perOp(func(i int) float64 { return 1000 * (dur[i]["client.run"] - dur[i]["serve.result_hit"]) }),
		"route.hop_us":           perOp(func(i int) float64 { return 1000 * (dur[i]["route.run"] - dur[i]["client.run"]) }),
		"store.put_ms":           selfMs("store.put"),
		"store.get_us":           1000 * selfMs("store.get"),
		"store.warm_start_ms":    median(warm),
		"stream.replay_ms":       selfMs("stream.replay"),
		"stream.gap_events":      gaps,
		"stream.first_event_ms":  perOp(func(i int) float64 { return vals[i].firstEventMs }),
		"exp.cell_ms":            lab.cellMs(),
		"exp.days_built":         lab.daysPerLab(),
		"trace.unaccounted_frac": perOp(func(i int) float64 { return 1 - layerSum(i, servePathLayers...)/vals[i].c1MissMs }),
		"trace.overhead_frac":    traced/plain - 1,
	}, tr.spans, nil
}

// writeTrace writes the spans as JSONL and the per-layer summary as
// JSON into dir, named after the workload and seed.
func writeTrace(dir, name string, seed int64, layers map[string]float64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type spanSummary struct {
		Count   int     `json:"count"`
		DurP50  float64 `json:"dur_p50_ms"`
		SelfP50 float64 `json:"self_p50_ms"`
	}
	tr := &tracer{spans: spans}
	dur, self := tr.times()
	byName := map[string]spanSummary{}
	for _, s := range spans {
		byName[s.Name] = spanSummary{}
	}
	for name := range byName {
		var d, sf []float64
		for op := range dur {
			if v, ok := dur[op][name]; ok {
				d = append(d, v)
				sf = append(sf, self[op][name])
			}
		}
		byName[name] = spanSummary{Count: len(d), DurP50: median(d), SelfP50: median(sf)}
	}
	out, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "layers": layers, "spans": byName,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", append(out, '\n'), 0o644)
}
