// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment, as indexed in DESIGN.md), plus
// micro-benchmarks of the simulation hot paths. Each figure benchmark
// performs the complete experiment — weather synthesis, PV solves, policy
// simulation — on the reduced "quick" grid; `go run ./cmd/experiments`
// produces the full-resolution rows the paper reports.
package solarcore_test

import (
	"testing"

	"solarcore"
	"solarcore/internal/exp"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/stream"
	"solarcore/internal/workload"
)

func quickLab() *exp.Lab { return exp.NewLab(exp.Options{Quick: true}) }

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure1()
		if len(r.Points) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure6(128); len(f.Curves) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure7(128); len(f.Curves) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure13(quickLab()); len(f.Runs) != 3 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure14(quickLab()); len(f.Runs) != 3 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Table7(quickLab()); len(t.Err) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure15(quickLab()); len(f.Rows) != 16 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure16(quickLab()); f.BestRatio() <= 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure17(quickLab()); f.BestRatio() <= 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := quickLab()
		l.Prefetch()
		if f := exp.Figure18(l); f.OverallAverage("MPPT&Opt") <= 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure19(quickLab()); len(f.SolarShare) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.Figure20(quickLab()); len(f.Buckets) != 5 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := quickLab()
		l.Prefetch()
		if f := exp.Figure21(l); f.Average("MPPT&Opt") <= 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkHeadlines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := quickLab()
		l.Prefetch()
		if h := exp.Headlines(l); h.AvgUtilization <= 0 {
			b.Fatal("bad headlines")
		}
	}
}

// --- hot-path micro-benchmarks ---

func BenchmarkPVOperatingPoint(b *testing.B) {
	m := pv.NewModule(pv.BP3180N())
	env := pv.Env{Irradiance: 720, CellTemp: 41}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh sample per solve, so the curve's memo never answers.
		cv := m.At(env)
		cv.ResistiveOperating(4.2)
	}
}

func BenchmarkPVMPPSolve(b *testing.B) {
	m := pv.NewModule(pv.BP3180N())
	env := pv.Env{Irradiance: 720, CellTemp: 41}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv := m.At(env)
		cv.MPP()
	}
}

func BenchmarkControllerTrack(b *testing.B) {
	chip, err := solarcore.NewChip(solarcore.DefaultChip())
	if err != nil {
		b.Fatal(err)
	}
	mix, _ := workload.MixByName("HM2")
	mix.Apply(chip)
	circuit := power.NewCircuit(pv.NewModule(pv.BP3180N()))
	ctrl, err := solarcore.NewController(circuit, chip, solarcore.PolicyOpt, solarcore.ControllerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	envs := []pv.Env{{Irradiance: 500, CellTemp: 30}, {Irradiance: 900, CellTemp: 40}, {Irradiance: 700, CellTemp: 35}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Track(envs[i%len(envs)], float64(i))
	}
}

func BenchmarkDaySimulation(b *testing.B) {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	mix, _ := workload.MixByName("ML2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMPPT(sim.Config{Day: day, Mix: mix}, sched.OptTPR{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunner builds the standard day/mix Runner used by the observer
// overhead pair below and by the allocation gate (allocs_test.go).
func benchRunner(b testing.TB, opts ...solarcore.RunnerOption) *solarcore.Runner {
	b.Helper()
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := solarcore.MixByName("ML2")
	if err != nil {
		b.Fatal(err)
	}
	r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRunMPPT is the no-observer baseline for the hook overhead
// budget (compare against BenchmarkRunMPPTNopObserver).
func BenchmarkRunMPPT(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMPPTNopObserver runs the same day with the no-op observer
// attached, exercising the full hook path (run/track/alloc/tick events
// are built and dispatched, then discarded). On a 2-CPU host (go1.24.0)
// five interleaved runs measured 0.62–0.76 ms against 0.55–0.64 ms for
// BenchmarkRunMPPT: 8–37% over it per pair, a median of 17%.
func BenchmarkRunMPPTNopObserver(b *testing.B) {
	r := benchRunner(b, solarcore.WithObserver(solarcore.NopObserver()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMPPTDisarmedFaults runs the same day with a zero-intensity
// fault schedule attached. A disarmed schedule resolves to a nil runtime
// and the exact clean code path (DESIGN.md §11). On a 2-CPU host
// (go1.24.0) five interleaved pairs against BenchmarkRunMPPT read −1% to
// +3%, a median of +1.4%: within the run-to-run spread.
func BenchmarkRunMPPTDisarmedFaults(b *testing.B) {
	s, err := solarcore.ParseFaults("cloud:t0=600,t1=720,i=0")
	if err != nil {
		b.Fatal(err)
	}
	r := benchRunner(b, solarcore.WithFaults(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMPPTStreamPublisher runs the same day with a live stream
// publisher attached and no subscribers: every hook event is marshaled
// onto the topic's ring. This is the full publish-side cost of
// GET /v1/stream (DESIGN.md §17).
func BenchmarkRunMPPTStreamPublisher(b *testing.B) {
	hub := stream.NewHub(stream.Config{})
	topic, _ := hub.Ensure("bench")
	r := benchRunner(b, solarcore.WithObserver(stream.NewPublisher(topic)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMPPTStreamSubscriber adds one attached, idle subscriber
// (connected, never reading). An idle or blocked watcher must cost the
// simulation nothing beyond one wakeup signal, and must never stall a
// tick (the drop-oldest slow-consumer policy absorbs the lag). On a
// 2-CPU host (go1.24.0) five interleaved runs put it between −20% and
// +15% of BenchmarkRunMPPTStreamPublisher, median −4%: within the
// run-to-run spread of that path.
func BenchmarkRunMPPTStreamSubscriber(b *testing.B) {
	hub := stream.NewHub(stream.Config{})
	topic, _ := hub.Ensure("bench")
	sub := topic.Subscribe(0)
	defer sub.Close()
	r := benchRunner(b, solarcore.WithObserver(stream.NewPublisher(topic)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeatherGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solarcore.GenerateWeather(solarcore.NC, solarcore.Apr, i)
	}
}
