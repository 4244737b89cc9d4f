package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"solarcore/internal/lint"
)

// TestJSONSchemaRoundTrip pins the version-3 report wire format: the
// top-level {version, findings, summary} object, exactly the five keys
// file/line/col/analyzer/message per finding (Pos stays internal), the
// summary counters, and that a decode of the emitted bytes reproduces
// the report.
func TestJSONSchemaRoundTrip(t *testing.T) {
	res := &lint.Result{
		Findings: []lint.Finding{
			{File: "internal/pv/module.go", Line: 42, Col: 7, Analyzer: "unitflow",
				Message: "+ mixes W and V"},
			{File: "internal/thermal/thermal.go", Line: 9, Col: 3, Analyzer: "floateq",
				Message: "floating-point == comparison"},
		},
		Suppressed:   3,
		SuppressedBy: map[string]int{"floateq": 2, "detcheck": 1},
	}
	rep := buildReport(res, nil)
	var buf strings.Builder
	if err := writeJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}

	var generic map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &generic); err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	var top []string
	for k := range generic {
		top = append(top, k)
	}
	sort.Strings(top)
	if want := []string{"findings", "summary", "version"}; !reflect.DeepEqual(top, want) {
		t.Errorf("top-level keys %v, want %v", top, want)
	}
	if v := generic["version"].(float64); v != 3 {
		t.Errorf("version = %v, want 3", v)
	}
	wantKeys := []string{"analyzer", "col", "file", "line", "message"}
	for i, obj := range generic["findings"].([]any) {
		var keys []string
		for k := range obj.(map[string]any) {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("finding %d has keys %v, want %v", i, keys, wantKeys)
		}
	}
	summary := generic["summary"].(map[string]any)
	var sumKeys []string
	for k := range summary {
		sumKeys = append(sumKeys, k)
	}
	sort.Strings(sumKeys)
	wantSum := []string{"analyzers", "suppressed", "total_findings"}
	if !reflect.DeepEqual(sumKeys, wantSum) {
		t.Errorf("summary keys %v, want %v", sumKeys, wantSum)
	}

	var out report
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 3 || out.Summary.TotalFindings != 2 || out.Summary.Suppressed != 3 {
		t.Errorf("round trip summary = %+v", out.Summary)
	}
	for i := range out.Findings {
		if out.Findings[i].String() != res.Findings[i].String() {
			t.Errorf("finding %d changed: %s -> %s", i, res.Findings[i], out.Findings[i])
		}
	}
	// Every analyzer in the (full) registry has a summary row, and the
	// per-analyzer counters match the inputs.
	if len(out.Summary.Analyzers) != len(lint.Registry()) {
		t.Errorf("summary covers %d analyzers, want %d", len(out.Summary.Analyzers), len(lint.Registry()))
	}
	if a := out.Summary.Analyzers["floateq"]; a.Findings != 1 || a.Suppressed != 2 {
		t.Errorf("floateq row = %+v", a)
	}
	if a := out.Summary.Analyzers["detcheck"]; a.Findings != 0 || a.Suppressed != 1 {
		t.Errorf("detcheck row = %+v", a)
	}
}

// TestJSONEmptyIsArray pins that a clean tree emits "findings": [] —
// not null — so downstream tooling can index the result unconditionally.
func TestJSONEmptyIsArray(t *testing.T) {
	var buf strings.Builder
	if err := writeJSON(&buf, buildReport(&lint.Result{}, nil)); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Findings json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(out.Findings)); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestSelectAnalyzers pins the -analyzers flag semantics: empty keeps
// the full registry (nil → lint.Run default), names resolve in order,
// whitespace is tolerated, and an unknown name errors with the valid
// choices listed.
func TestSelectAnalyzers(t *testing.T) {
	if got, err := selectAnalyzers(""); err != nil || got != nil {
		t.Errorf("selectAnalyzers(\"\") = %v, %v; want nil, nil", got, err)
	}
	got, err := selectAnalyzers("ctxflow, lockcheck,spawncheck")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range got {
		names = append(names, a.Name)
	}
	if want := []string{"ctxflow", "lockcheck", "spawncheck"}; !reflect.DeepEqual(names, want) {
		t.Errorf("resolved %v, want %v", names, want)
	}
	if _, err := selectAnalyzers("ctxflow,nosuch"); err == nil {
		t.Error("unknown analyzer accepted")
	} else if !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "metricname") {
		t.Errorf("error %q should name the bad input and the valid choices", err)
	}
	if _, err := selectAnalyzers(","); err == nil {
		t.Error("empty name in list accepted")
	}
}

// TestSubsetRun pins that a subset run reports only its analyzers'
// findings: the concurrency analyzers are clean on this tree, while the
// full registry (surfaced by an empty allowlist) is not.
func TestSubsetRun(t *testing.T) {
	analyzers, err := selectAnalyzers("metricname,spawncheck")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(lint.Options{Analyzers: analyzers})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Analyzer != "metricname" && f.Analyzer != "spawncheck" {
			t.Errorf("subset run leaked a %s finding: %s", f.Analyzer, f)
		}
	}
}

// TestJSONRealRun round-trips the actual driver output: whatever a full
// module run reports must survive encode/decode unchanged.
func TestJSONRealRun(t *testing.T) {
	res, err := lint.Run(lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := writeJSON(&buf, buildReport(res, nil)); err != nil {
		t.Fatal(err)
	}
	var out report
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Findings) != len(res.Findings) {
		t.Errorf("round trip kept %d of %d findings", len(out.Findings), len(res.Findings))
	}
	for i := range out.Findings {
		if out.Findings[i].String() != res.Findings[i].String() {
			t.Errorf("finding %d changed: %s -> %s", i, res.Findings[i], out.Findings[i])
		}
	}
	if out.Summary.Suppressed != res.Suppressed {
		t.Errorf("suppressed = %d, want %d", out.Summary.Suppressed, res.Suppressed)
	}
}

// scratchModule writes a throwaway module holding one file, bad.go,
// with src as its content, and chdirs into it. Each call gets a fresh
// temp dir: the module cache is keyed by root, so a rewritten file in
// a root already loaded would be served stale.
func scratchModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module scratch.example\n\ngo 1.22\n")
	writeFile("bad.go", src)
	t.Chdir(dir)
}

// TestExitCodes pins the process exit contract: 0 clean, 1 findings,
// 2 usage/driver failure. The removed -fix and -diff flags are unknown
// flags like any other.
func TestExitCodes(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-rules"}, &out, &errb); code != 0 {
		t.Fatalf("-rules exit = %d, want 0\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "detcheck") || !strings.Contains(out.String(), "hotcost") {
		t.Errorf("-rules misses the module analyzers:\n%s", out.String())
	}
	if code := run([]string{"-analyzers", "nosuch"}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer exit = %d, want 2", code)
	}
	for _, flag := range []string{"-nosuchflag", "-fix", "-diff"} {
		if code := run([]string{flag}, &out, &errb); code != 2 {
			t.Errorf("%s exit = %d, want 2", flag, code)
		}
	}

	scratchModule(t, `package scratch

import "errors"

func fail() error { return errors.New("x") }

// Use drops the error, which errcheck flags.
func Use() {
	fail()
}
`)
	out.Reset()
	errb.Reset()
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("dirty tree exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	want := "bad.go:9:2: [errcheck] unchecked error returned by scratch.fail; " +
		"handle it or discard explicitly with `_ =`\n"
	if out.String() != want {
		t.Errorf("dirty tree printed %q, want %q", out.String(), want)
	}

	scratchModule(t, `package scratch

import "errors"

func fail() error { return errors.New("x") }

// Use discards the error explicitly, which errcheck accepts.
func Use() {
	_ = fail()
}
`)
	out.Reset()
	errb.Reset()
	if code := run(nil, &out, &errb); code != 0 {
		t.Errorf("clean tree exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree printed findings:\n%s", out.String())
	}
}
