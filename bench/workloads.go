package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/exp"
	"solarcore/internal/obs"
	"solarcore/internal/serve"
)

// env is what every workload shares: where the built servers are, where
// scratch files go, and the run's seed and CPU count.
type env struct {
	bin   string // directory holding the built solard and solargate
	work  string // scratch directory of this run, removed at exit
	seed  int64
	nproc int
}

func (e *env) solard() string    { return filepath.Join(e.bin, "solard") }
func (e *env) solargate() string { return filepath.Join(e.bin, "solargate") }

// workload is one traffic mix of the benchmark.
type workload interface {
	// setup starts the system from nothing and warms it up. The
	// benchmark times it, tears it down and repeats it, and measures on
	// the last set-up.
	setup(ctx context.Context) error
	// teardown stops every process setup started.
	teardown() error
	// clients is the closed-loop client count of the measured phase.
	clients() int
	// counted lists the clients whose operations the end-to-end metrics
	// count; nil means all of them.
	counted() []int
	// op runs one operation as client c; an error counts as a failure.
	op(ctx context.Context, c int) error
	// metrics snapshots the front door's /metrics (empty in process).
	metrics(ctx context.Context) (obs.Snapshot, error)
	// check verifies outputs once the measured phase is over, given the
	// phase's counter deltas, and returns how many checks ran.
	check(ctx context.Context, delta map[string]float64) (int, error)
	// rssMB is the summed peak RSS of the processes under test.
	rssMB() (float64, error)
	// layers returns the measured-phase per-layer values this workload
	// adds or overrides, given the phase's counter deltas and length.
	layers(delta map[string]float64, seconds float64) map[string]float64
	// traceSpecs are the specs the traced run decomposes, drawn from the
	// workload's own seeded inputs.
	traceSpecs(n int) []solarcore.RunSpec
	// reuse is sim.day_reuse: cells per distinct solar day in the inputs.
	reuse() float64
}

var workloadNames = []string{"miss-run", "sweep-grid", "hit-run", "replay-watch", "paper-grid"}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "miss-run":
		return &missRun{server: server{env: e, kept: newKeeper(e.seed)}, specs: distinctSpecs(e.seed, streamMiss)}, nil
	case "sweep-grid":
		return &sweepGrid{server: server{env: e, kept: newKeeper(e.seed)}, sweeps: sweeps(e.seed)}, nil
	case "hit-run":
		return &hitRun{server: server{env: e, kept: newKeeper(e.seed)}, hot: distinctSpecs(e.seed, streamHot).first(hotSet), ranks: zipfRanks(e.seed, hotSet)}, nil
	case "replay-watch":
		return &replayWatch{server: server{env: e, kept: newKeeper(e.seed)}, stored: distinctSpecs(e.seed, streamStored).first(storedSet),
			runKeys: indices(e.seed, streamRunKeys, storedSet), streamKeys: indices(e.seed, streamStreamKeys, storedSet)}, nil
	case "paper-grid":
		return &paperGrid{env: e, days: indices(e.seed, streamDays, maxDay)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// forEach runs fn(0..n-1) on up to workers goroutines and returns the
// failures joined.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// server is the part of a workload that talks to real server processes.
type server struct {
	env  *env
	fl   *fleet
	cli  *client.Client
	kept *keeper // seeded responses to check against the library
}

// startNodes starts n solard nodes, fronted by a solargate when gate is
// set, and points the client at the front door.
func (s *server) startNodes(ctx context.Context, n int, gate bool, args ...string) error {
	s.fl = &fleet{}
	var urls []string
	for range n {
		p, err := startProc(ctx, s.env.solard(), append([]string{"-addr", "127.0.0.1:0", "-grace", "2s"}, args...)...)
		if err != nil {
			return err
		}
		s.fl.procs = append(s.fl.procs, p)
		urls = append(urls, p.url)
	}
	front := urls[0]
	if gate {
		p, err := startProc(ctx, s.env.solargate(), "-addr", "127.0.0.1:0", "-grace", "2s", "-backends", strings.Join(urls, ","))
		if err != nil {
			return err
		}
		s.fl.procs = append(s.fl.procs, p)
		front = p.url
	}
	s.cli = client.New(front)
	return nil
}

func (s *server) teardown() error {
	if s.fl == nil {
		return nil
	}
	err := s.fl.stop()
	s.fl = nil
	return err
}

func (s *server) metrics(ctx context.Context) (obs.Snapshot, error) { return s.cli.Metrics(ctx) }

func (s *server) rssMB() (float64, error) { return s.fl.rssMB() }

func (s *server) layers(delta map[string]float64, seconds float64) map[string]float64 {
	return map[string]float64{"sim.cells_per_s": delta[serve.MetricRuns] / seconds}
}

func (s *server) counted() []int { return nil }

func (s *server) check(ctx context.Context, _ map[string]float64) (int, error) {
	return s.kept.verify(ctx)
}

// run posts one spec and returns the served body.
func (s *server) run(ctx context.Context, spec solarcore.RunSpec) (*client.RunResult, error) {
	return s.cli.Run(ctx, client.RunRequest{RunSpec: spec})
}

// missRun: one solard, no store, every spec distinct — the uncached fill
// path, where the day build and the policy run do the work.
type missRun struct {
	server
	specs *seq[solarcore.RunSpec]
	next  atomic.Int64
}

// missWarm is how many specs, per client, warm a fresh solard up; they
// precede the measured specs in the sequence.
const missWarm = 2

func (w *missRun) clients() int   { return w.env.nproc }
func (w *missRun) warm() int      { return missWarm * w.clients() }
func (w *missRun) reuse() float64 { return dayReuse(w.specs.first(w.warm() + int(w.next.Load()))) }
func (w *missRun) traceSpecs(n int) []solarcore.RunSpec {
	out := make([]solarcore.RunSpec, n)
	for i := range out {
		out[i] = w.specs.at(w.warm() + i)
	}
	return out
}

func (w *missRun) setup(ctx context.Context) error {
	if err := w.startNodes(ctx, 1, false); err != nil {
		return err
	}
	w.next.Store(0)
	return forEach(ctx, w.warm(), w.clients(), func(i int) error {
		_, err := w.run(ctx, w.specs.at(i))
		return err
	})
}

func (w *missRun) op(ctx context.Context, _ int) error {
	i := int(w.next.Add(1) - 1)
	spec := w.specs.at(w.warm() + i)
	res, err := w.run(ctx, spec)
	if err != nil {
		return err
	}
	if res.Cache != obs.CacheMiss {
		return fmt.Errorf("distinct spec %s served as %q, want a miss", spec.Canonical(), res.Cache)
	}
	w.kept.keep(i, spec, res.Body)
	return nil
}

// sweepGrid: solargate over two nodes; every sweep is one fresh solar
// day crossed with 8 mixes and 3 policies, fanned out cell by cell.
type sweepGrid struct {
	server
	sweeps *seq[[]solarcore.RunSpec]
	next   atomic.Int64
}

// clients is one: a sweep already fans out 8 cells at a time, and two
// concurrent sweeps overflow a node's worker queue into 429s and
// retries.
func (w *sweepGrid) clients() int { return 1 }
func (w *sweepGrid) reuse() float64 {
	var cells []solarcore.RunSpec
	for i := range w.clients() + int(w.next.Load()) {
		cells = append(cells, w.sweeps.at(i)...)
	}
	return dayReuse(cells)
}
func (w *sweepGrid) traceSpecs(n int) []solarcore.RunSpec {
	return w.sweeps.at(w.clients())[:min(n, sweepCells)]
}

func (w *sweepGrid) sweep(ctx context.Context, i int) (*client.SweepResponse, []solarcore.RunSpec, error) {
	cells := w.sweeps.at(i)
	req := client.SweepRequest{Runs: make([]client.RunRequest, len(cells))}
	for j, c := range cells {
		req.Runs[j] = client.RunRequest{RunSpec: c}
	}
	resp, err := w.cli.Sweep(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	return resp, cells, verifySweep(cells, resp)
}

func (w *sweepGrid) setup(ctx context.Context) error {
	if err := w.startNodes(ctx, 2, true); err != nil {
		return err
	}
	w.next.Store(0)
	return forEach(ctx, w.clients(), w.clients(), func(i int) error {
		_, _, err := w.sweep(ctx, i)
		return err
	})
}

func (w *sweepGrid) op(ctx context.Context, _ int) error {
	i := int(w.next.Add(1) - 1)
	resp, cells, err := w.sweep(ctx, w.clients()+i)
	if err != nil {
		return err
	}
	for j, it := range resp.Results {
		w.kept.keep(i*sweepCells+j, cells[j], it.Result)
	}
	return nil
}

// hitRun: solargate over two nodes serving a warmed 256-spec hot set
// with Zipf popularity — the cached request path, no simulation.
type hitRun struct {
	server
	hot   []solarcore.RunSpec
	ranks *seq[int]
	next  atomic.Int64
}

func (w *hitRun) clients() int                         { return w.env.nproc }
func (w *hitRun) reuse() float64                       { return dayReuse(w.hot) }
func (w *hitRun) traceSpecs(n int) []solarcore.RunSpec { return w.hot[:n] }

func (w *hitRun) setup(ctx context.Context) error {
	if err := w.startNodes(ctx, 2, true); err != nil {
		return err
	}
	w.next.Store(0)
	return forEach(ctx, len(w.hot), w.clients(), func(i int) error {
		_, err := w.run(ctx, w.hot[i])
		return err
	})
}

func (w *hitRun) op(ctx context.Context, _ int) error {
	i := int(w.next.Add(1) - 1)
	spec := w.hot[w.ranks.at(i)]
	res, err := w.run(ctx, spec)
	if err != nil {
		return err
	}
	w.kept.keep(i, spec, res.Body)
	return nil
}

// replayWatch: one solard with a durable store and a 16-entry memory
// cache, filled through /v1/stream, killed with SIGKILL and restarted.
// Even clients read stored results with /v1/run, odd clients replay
// stored event tails with /v1/stream.
type replayWatch struct {
	server
	stored     []solarcore.RunSpec
	runKeys    *seq[int]
	streamKeys *seq[int]

	events     []int // events each stored spec streamed at fill time
	generation int   // set-up count, naming each set-up's store
	nextRun    atomic.Int64
	nextStream atomic.Int64
	streamed   atomic.Int64 // events received by the stream clients
}

// replayCache is the node's memory cache: an eighth of the stored set,
// so most reads come from the verified disk store.
const replayCache = storedSet / 8

func (w *replayWatch) clients() int { return max(2, w.env.nproc) }
func (w *replayWatch) counted() []int {
	var out []int
	for c := 0; c < w.clients(); c += 2 {
		out = append(out, c)
	}
	return out
}
func (w *replayWatch) reuse() float64                       { return dayReuse(w.stored) }
func (w *replayWatch) traceSpecs(n int) []solarcore.RunSpec { return w.stored[:n] }

// stream watches stored spec k and checks its events: want of them
// (any count when want is 0), gapless, ending in run_end.
func (w *replayWatch) stream(ctx context.Context, k, want int) (int, error) {
	s, err := w.cli.Stream(ctx, client.StreamRequest{RunRequest: client.RunRequest{RunSpec: w.stored[k]}})
	if err != nil {
		return 0, err
	}
	types, err := readStream(s, nil)
	if err != nil {
		return 0, err
	}
	if want == 0 {
		want = len(types)
	}
	if err := verifyStream(types, want); err != nil {
		return 0, fmt.Errorf("%s: %w", w.stored[k].Canonical(), err)
	}
	return len(types), nil
}

func (w *replayWatch) setup(ctx context.Context) error {
	w.generation++
	dir := filepath.Join(w.env.work, fmt.Sprintf("replay-store-%d", w.generation))
	args := []string{"-store.dir", dir, "-cache", fmt.Sprint(replayCache)}
	if err := w.startNodes(ctx, 1, false, args...); err != nil {
		return err
	}
	// Fill: the first watcher of each spec runs it live; serve persists
	// the result and the event tail.
	w.events = make([]int, len(w.stored))
	err := forEach(ctx, len(w.stored), w.env.nproc, func(k int) error {
		n, err := w.stream(ctx, k, 0)
		w.events[k] = n
		return err
	})
	if err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	// Crash and warm start: everything from here on is served from disk.
	if err := w.fl.procs[0].kill(); err != nil {
		return err
	}
	w.fl = nil
	if err := w.startNodes(ctx, 1, false, args...); err != nil {
		return err
	}
	w.nextRun.Store(0)
	w.nextStream.Store(0)
	if _, err := w.run(ctx, w.stored[0]); err != nil {
		return err
	}
	_, err = w.stream(ctx, 0, w.events[0])
	return err
}

func (w *replayWatch) op(ctx context.Context, c int) error {
	if c%2 == 1 {
		k := w.streamKeys.at(int(w.nextStream.Add(1) - 1))
		n, err := w.stream(ctx, k, w.events[k])
		w.streamed.Add(int64(n))
		return err
	}
	i := int(w.nextRun.Add(1) - 1)
	spec := w.stored[w.runKeys.at(i)]
	res, err := w.run(ctx, spec)
	if err != nil {
		return err
	}
	w.kept.keep(i, spec, res.Body)
	return nil
}

func (w *replayWatch) check(ctx context.Context, delta map[string]float64) (int, error) {
	n, err := w.server.check(ctx, delta)
	if runs := delta[serve.MetricRuns]; runs > 0 {
		err = errors.Join(err, fmt.Errorf("the node ran %v simulations while serving stored results", runs))
	}
	return n + 1, err
}

func (w *replayWatch) layers(delta map[string]float64, seconds float64) map[string]float64 {
	out := w.server.layers(delta, seconds)
	out["stream.events_per_s"] = float64(w.streamed.Load()) / seconds
	return out
}

// paperGrid: in process, the paper reproducer's full grid — a fresh
// exp.Lab on a seeded day, Prefetch, then Headlines — checked against
// the paper gate's six directional claims every time.
type paperGrid struct {
	env  *env
	days *seq[int]
	next atomic.Int64

	mu  sync.Mutex
	lab labStats // the metrics of every completed grid
}

func (w *paperGrid) clients() int    { return 1 }
func (w *paperGrid) counted() []int  { return nil }
func (w *paperGrid) teardown() error { return nil }
func (w *paperGrid) reuse() float64  { return dayReuse(labCells(w.days.at(1))) }
func (w *paperGrid) rssMB() (float64, error) {
	return peakRSSMB(0)
}
func (w *paperGrid) metrics(context.Context) (obs.Snapshot, error) { return obs.Snapshot{}, nil }
func (w *paperGrid) traceSpecs(n int) []solarcore.RunSpec {
	return pick(w.env.seed, labCells(w.days.at(1)), n)
}

// setup warms code paths and the heap with one quick-grid lab.
func (w *paperGrid) setup(ctx context.Context) error {
	w.next.Store(0)
	l := exp.NewLab(exp.Options{Quick: true, Day: w.days.at(0)})
	if err := l.PrefetchContext(ctx); err != nil {
		return err
	}
	return paperGate(exp.Headlines(l))
}

func (w *paperGrid) op(ctx context.Context, _ int) (err error) {
	day := w.days.at(1 + int(w.next.Add(1)-1))
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("paper grid of day %d panicked: %v", day, p)
		}
	}()
	l := exp.NewLab(exp.Options{Day: day})
	if err := l.PrefetchContext(ctx); err != nil {
		return err
	}
	if err := paperGate(exp.Headlines(l)); err != nil {
		return fmt.Errorf("day %d: %w", day, err)
	}
	w.mu.Lock()
	w.lab.add(l.Metrics())
	w.mu.Unlock()
	return nil
}

// check counts the paper-gate checks: op already failed any grid whose
// headlines missed one.
func (w *paperGrid) check(context.Context, map[string]float64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lab.labs == 0 {
		return 0, errors.New("no paper grid completed")
	}
	return int(w.lab.labs) * 6, nil
}

func (w *paperGrid) layers(_ map[string]float64, seconds float64) map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return map[string]float64{
		"sim.cells_per_s": w.lab.cellCount / seconds,
		"exp.cell_ms":     w.lab.cellMs(),
		"exp.days_built":  w.lab.daysPerLab(),
	}
}

// counterDelta subtracts two /metrics snapshots' counters, and their
// histograms' observation counts as "<name>.count".
func counterDelta(before, after obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after.Counters {
		out[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		out[k+".count"] = float64(h.Count) - float64(before.Histograms[k].Count)
	}
	return out
}
