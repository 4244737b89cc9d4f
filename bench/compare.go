package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: how the benchmark is run and the metrics
// it promises, with the regression bound of each end-to-end metric.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords returns the record lines of a file, in order; other lines
// (a run's final result line, logs) are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Record == recordTag {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles are the three cut points of Python's
// statistics.quantiles(values, n=4), whose default method is
// "exclusive".
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// verdict is the comparison of one (end-to-end metric, workload) pair
// between a parent set A and a change set B.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	IQRA     float64 `json:"iqr_a"`
	IQRB     float64 `json:"iqr_b"`
	Wins     int     `json:"b_wins"`
	Pairs    int     `json:"pairs"`
	Verdict  string  `json:"verdict"`
}

// judge applies the rule for claiming a change: with the run-to-run
// spread (IQR over median) of either set wider than the bound, the pair
// is unresolved unless every B run beats every A run; a B median worse
// than A's by more than the bound is worse; B winning at least nine
// tenths of the alternating pairs, ties counting for neither, with
// medians further apart than A's IQR, is improved; anything else is
// unchanged.
func judge(spec metricSpec, a, b []float64) verdict {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	v := verdict{Metric: spec.Name, MedianA: ma, MedianB: mb, IQRA: q3a - q1a, IQRB: q3b - q1b}
	lower := spec.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	v.Pairs = min(len(a), len(b))
	for i := range v.Pairs {
		if better(b[i], a[i]) {
			v.Wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := ratio(mb-ma, ma)
	if !lower {
		worse = -worse
	}
	spread := max(ratio(v.IQRA, ma), ratio(v.IQRB, mb))
	switch {
	case spread > spec.Bound && !allBetter:
		v.Verdict = "unresolved"
	case worse > spec.Bound:
		v.Verdict = "worse"
	case v.Pairs > 0 && float64(v.Wins) >= 0.9*float64(v.Pairs) && better(mb, ma) && math.Abs(mb-ma) > v.IQRA:
		v.Verdict = "improved"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareMain is `bench compare A B`: A and B hold the record lines of
// two sets of runs (the parent's and the change's, alternated when
// taken), and every (end-to-end metric, workload) pair gets a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: the repository root's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		pf(stderr, "bench: usage: bench compare [-spec BENCHMARK.json] A.jsonl B.jsonl\n")
		return 2
	}
	if *specPath == "" {
		root, err := findRoot("")
		if err != nil {
			pf(stderr, "bench: %v\n", err)
			return 1
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	verdicts, err := compareFiles(*specPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		pf(stderr, "bench: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	pf(tw, "workload\tmetric\tmedian A\tIQR A\tmedian B\tIQR B\tB wins\tverdict\n")
	for _, v := range verdicts {
		pf(tw, "%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%d/%d\t%s\n",
			v.Workload, v.Metric, v.MedianA, v.IQRA, v.MedianB, v.IQRB, v.Wins, v.Pairs, v.Verdict)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	line, err := json.Marshal(verdicts)
	if err != nil {
		return 1
	}
	pf(stdout, "%s\n", line)
	return 0
}

func compareFiles(specPath, pathA, pathB string) ([]verdict, error) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return nil, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return nil, err
	}
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var out []verdict
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(m, va, vb)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("the two files share no (workload, end-to-end metric) pair")
	}
	return out, nil
}
