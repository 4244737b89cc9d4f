package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/exp"
	"solarcore/internal/lint"
)

// requestBytes renders every request the workloads' first n operations
// would send, as the systems under test would receive them.
func requestBytes(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	miss := distinctSpecs(seed, streamMiss)
	hot := distinctSpecs(seed, streamHot)
	stored := distinctSpecs(seed, streamStored)
	sw := sweeps(seed)
	for i := range n {
		add(client.RunRequest{RunSpec: miss.at(i)})
		add(client.RunRequest{RunSpec: hot.at(i)})
		add(client.RunRequest{RunSpec: stored.at(i)})
		req := client.SweepRequest{}
		for _, c := range sw.at(i) {
			req.Runs = append(req.Runs, client.RunRequest{RunSpec: c})
		}
		add(req)
	}
	add(exp.Options{Day: indices(seed, streamDays, maxDay).at(0)})
	add(zipfRanks(seed, hotSet).first(n))
	add(indices(seed, streamRunKeys, storedSet).first(n))
	add(indices(seed, streamStreamKeys, storedSet).first(n))
	add(checkSet(seed))
	add(pick(seed, labCells(3), traceOps))
	return out
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b, other := requestBytes(t, 7, 40), requestBytes(t, 7, 40), requestBytes(t, 8, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	for i := range a {
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("input %d is the same under seeds 7 and 8: %s", i, a[i])
		}
	}
	for _, req := range a {
		for _, name := range workloadNames {
			if bytes.Contains(req, []byte(name)) {
				t.Errorf("a generated input names workload %q: %s", name, req)
			}
		}
	}
}

func TestSeqIsIndependentOfReadOrder(t *testing.T) {
	forward, backward := distinctSpecs(3, streamMiss), distinctSpecs(3, streamMiss)
	for i := 49; i >= 0; i-- {
		backward.at(i)
	}
	if !reflect.DeepEqual(forward.first(50), backward.first(50)) {
		t.Fatal("element i depends on the order the sequence was read in")
	}
	seen := map[string]bool{}
	for _, s := range forward.first(50) {
		if seen[s.Hash()] {
			t.Fatalf("distinctSpecs repeated %s", s.Canonical())
		}
		seen[s.Hash()] = true
	}
}

func TestSweepCellsShareOneDay(t *testing.T) {
	for i, cells := range sweeps(5).first(10) {
		if len(cells) != sweepCells {
			t.Fatalf("sweep %d has %d cells", i, len(cells))
		}
		if r := dayReuse(cells); r != sweepCells {
			t.Errorf("sweep %d reuses each day %v times, want %d", i, r, sweepCells)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	for _, units := range []map[string]string{e2eUnits, layerUnits} {
		for name, unit := range units {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, nameRE)
			}
			if !unitRE.MatchString(unit) {
				t.Errorf("metric %s: unit %q does not match %s", name, unit, unitRE)
			}
		}
	}
	for name := range e2eUnits {
		if _, ok := layerUnits[name]; ok {
			t.Errorf("metric %s is both end-to-end and per-layer", name)
		}
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, workloadNames)
	}
	check := func(kind string, listed []metricSpec, units map[string]string, bounded bool) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
		if !reflect.DeepEqual(got, units) {
			t.Errorf("BENCHMARK.json %s metrics %v, the code emits %v", kind, got, units)
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits, true)
	check("per_layer", spec.PerLayer, layerUnits, false)
	setup := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setup)
		}
	}
	if spec.RunSeconds != defaultRunS {
		t.Errorf("BENCHMARK.json run_seconds %d, the code's default %d", spec.RunSeconds, defaultRunS)
	}
}

// TestSolarvetGateIsClean runs the repository's lint gate over the
// module with the benchmark in it. The gate's module-wide analyses (the
// call graph behind hotcost, for one) see the benchmark's code too, so
// the whole gate must stay clean — as the root TestSolarvetClean checks
// it — with no allowlist entry added for the benchmark.
func TestSolarvetGateIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res, err := lint.Run(lint.Options{Root: "..", Today: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.LoadErrors {
		t.Errorf("load: %v", e)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	if n := len(res.UnusedAllows) + len(res.UnusedBudgets) + len(res.ExpiredAllows) + len(res.ExpiredBudgets); n > 0 {
		t.Errorf("%d stale or expired allowlist entries", n)
	}
	found := false
	for _, p := range res.Module.Pkgs {
		found = found || p.Path == "solarcore/bench"
	}
	if !found {
		t.Error("the lint gate did not load the benchmark package")
	}
}

func TestVerifiersRejectOneCorruptByte(t *testing.T) {
	ctx := context.Background()
	spec := solarcore.RunSpec{Site: "TN", Season: "Apr", Mix: "L2", Policy: solarcore.PolicyRR, Day: 12, StepMin: 4}
	want, err := referenceBody(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 0x01
		return c
	}
	positions := []int{0, len(want) / 3, len(want) / 2, len(want) - 1}

	t.Run("run body", func(t *testing.T) {
		if err := verifyBody(spec, want, want); err != nil {
			t.Fatal(err)
		}
		for _, i := range positions {
			if verifyBody(spec, corrupt(want, i), want) == nil {
				t.Errorf("a body with byte %d flipped passed", i)
			}
		}
		k := &keeper{set: map[int]bool{0: true}, got: map[int]keptBody{}}
		k.keep(0, spec, corrupt(want, len(want)/2))
		if _, err := k.verify(ctx); err == nil {
			t.Error("the keeper passed a corrupt kept body")
		}
	})

	t.Run("sweep", func(t *testing.T) {
		cells := []solarcore.RunSpec{spec}
		ok := &client.SweepResponse{Results: []client.SweepItem{{Hash: spec.Hash(), Cache: "miss", Result: want}}}
		if err := verifySweep(cells, ok); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(ok)
		if err != nil {
			t.Fatal(err)
		}
		hashAt := bytes.Index(raw, []byte(spec.Hash()))
		var bad client.SweepResponse
		if err := json.Unmarshal(corrupt(raw, hashAt+5), &bad); err != nil {
			t.Fatal(err)
		}
		if verifySweep(cells, &bad) == nil {
			t.Error("a sweep whose cell hash has a flipped byte passed")
		}
		k := &keeper{set: map[int]bool{0: true}, got: map[int]keptBody{}}
		k.keep(0, spec, corrupt(ok.Results[0].Result, 10))
		if _, err := k.verify(ctx); err == nil {
			t.Error("a sweep cell with a flipped byte passed")
		}
	})

	t.Run("stream", func(t *testing.T) {
		tail, err := eventTail(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(tail), []byte("\n"))
		sse := func(lines [][]byte) []byte {
			var buf bytes.Buffer
			for i, l := range lines {
				var head struct{ Type string }
				if err := json.Unmarshal(l, &head); err != nil {
					head.Type = "unparsable"
				}
				fmt.Fprintf(&buf, "id: %d\nevent: %s\ndata: %s\n\n", i+1, head.Type, l)
			}
			return buf.Bytes()
		}
		good := sse(lines)
		// Flip one byte inside the last event's type name ("run_end").
		last := bytes.LastIndex(good, []byte(`"run_end"`))
		for name, body := range map[string][]byte{"intact": good, "corrupt": corrupt(good, last+3)} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", client.ContentTypeSSE)
				_, _ = w.Write(body)
			}))
			s, err := client.New(srv.URL).Stream(ctx, client.StreamRequest{RunRequest: client.RunRequest{RunSpec: spec}})
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			types, err := readStream(s, nil)
			if err == nil {
				err = verifyStream(types, len(lines))
			}
			srv.Close()
			if (err == nil) != (name == "intact") {
				t.Errorf("%s stream: verification error %v", name, err)
			}
		}
		if verifyStream([]string{"run_start", "gap", "run_end"}, 3) == nil {
			t.Error("a stream with a gap passed")
		}
	})

	t.Run("paper gate", func(t *testing.T) {
		h := exp.HeadlinesResult{AvgUtilization: 0.82, OptOverRR: 0.11, OptOverIC: 0.38,
			OptOverBestFixed: 0.45, BestFixedRatio: 0.69, OptVsBatteryU: 0.01}
		if err := paperGate(h); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		raw[bytes.Index(raw, []byte("0.82"))+2] = '3' // one byte: utilization 0.82 → 0.32
		var bad exp.HeadlinesResult
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatal(err)
		}
		if paperGate(bad) == nil {
			t.Error("headlines below the utilization claim passed the paper gate")
		}
	})
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) for these inputs.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1}, [3]float64{-1.25, 5.5, 12.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.1}
	same := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"same runs", same, same, "unchanged"},
		{"clearly faster", same, []float64{8, 8.1, 7.9, 8.05, 7.95}, "improved"},
		{"clearly slower", same, []float64{12, 12.1, 11.9, 12.05, 11.95}, "worse"},
		{"noisier than the bound", []float64{5, 15, 10, 7, 13}, same, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(lower, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload with a one-second measured phase, and
// the traced run of one, against freshly built servers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and runs every workload")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	root, err := findRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{bin: t.TempDir(), work: t.TempDir(), seed: 11, nproc: 2}
	if err := buildServers(root, e.bin); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		rec, err := runWorkload(ctx, e, name, 1, name == "miss-run", t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Failed > 0 || rec.Checks == 0 {
			t.Errorf("%s: correct %v, %d of %d failed, %d checks, errors %v",
				name, rec.Correct, rec.Failed, rec.Attempted, rec.Checks, rec.Errors)
		}
		want := e2eUnits
		if rec.Trace == 1 {
			want = layerUnits
		}
		got := sortedKeys(rec.Metrics)
		if !reflect.DeepEqual(got, sortedKeys(want)) {
			t.Errorf("%s: metrics %v, want %v", name, got, sortedKeys(want))
		}
		for k, m := range rec.Metrics {
			if rec.Trace == 0 && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v", name, k, m.Value)
			}
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
