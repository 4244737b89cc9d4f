// Command solarvet runs the repository's domain-aware static-analysis
// suite (internal/lint) over the whole module and reports findings as
//
//	file:line:col: [analyzer] message
//
// Exit status is 0 on a clean tree, 1 when findings (or stale, expired
// or unused allowlist entries and budgets) remain, and 2 on a driver
// failure. The same registry runs in-process from lint_test.go, so
// `go test ./...` enforces the gate; this command is the human-facing
// front end.
//
// Usage:
//
//	solarvet [-json] [-allow file] [-analyzers a,b,c] [-rules] [packages]
//
// The package arguments are accepted for familiarity (`solarvet ./...`)
// but the driver always loads every package in the module. -analyzers
// restricts the run to a comma-separated subset of the registry (names
// as shown by -rules); an unknown name is a usage error. solarvet only
// reports: it never edits the tree. The allowlist defaults to
// .solarvet.allow at the module root; see DESIGN.md for the entry
// format. -json emits the version-3 report object (findings plus a
// summary with per-analyzer finding/suppression counts), which
// scripts/check.sh preserves as solarvet-report.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"solarcore/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: it parses args, executes the suite, and
// returns the process exit code (0 clean, 1 findings or stale
// allowlist state, 2 driver/usage failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solarvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the version-3 JSON report")
	allow := fs.String("allow", "", "allowlist file (default: <module root>/.solarvet.allow if present)")
	names := fs.String("analyzers", "", "comma-separated analyzer subset to run (default: all)")
	rules := fs.Bool("rules", false, "print the analyzer registry and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *rules {
		for _, a := range lint.Registry() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintf(stderr, "solarvet: %v\n", err)
		return 2
	}

	res, err := lint.Run(lint.Options{Allow: *allow, Analyzers: analyzers, Today: time.Now()})
	if err != nil {
		fmt.Fprintf(stderr, "solarvet: %v\n", err)
		return 2
	}

	bad := false
	for _, err := range res.LoadErrors {
		bad = true
		fmt.Fprintf(stderr, "solarvet: load: %v\n", err)
	}

	if *jsonOut {
		if err := writeJSON(stdout, buildReport(res, analyzers)); err != nil {
			fmt.Fprintf(stderr, "solarvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(res.Findings) > 0 {
		bad = true
	}
	// Only a full-registry run can judge allowlist staleness: under a
	// subset, entries for the analyzers left out legitimately match
	// nothing.
	if *names == "" {
		for _, e := range res.ExpiredAllows {
			bad = true
			fmt.Fprintf(stderr, "solarvet: expired allowlist entry %s:%d (%s %s, expires=%s) — re-justify or remove it\n",
				res.AllowSource, e.Line, e.Analyzer, e.Path, e.Expires)
		}
		for _, b := range res.ExpiredBudgets {
			bad = true
			fmt.Fprintf(stderr, "solarvet: expired hotcost budget %s:%d (%s, expires=%s) — re-justify or remove it\n",
				res.AllowSource, b.Line, b.Root, b.Expires)
		}
		for _, e := range res.UnusedAllows {
			bad = true
			fmt.Fprintf(stderr, "solarvet: stale allowlist entry %s:%d (%s %s) — matched nothing, remove it\n",
				res.AllowSource, e.Line, e.Analyzer, e.Path)
		}
		for _, b := range res.UnusedBudgets {
			bad = true
			fmt.Fprintf(stderr, "solarvet: stale hotcost budget %s:%d (%s) — no such hot root, remove it\n",
				res.AllowSource, b.Line, b.Root)
		}
	}
	if res.Suppressed > 0 {
		fmt.Fprintf(stderr, "solarvet: %d finding(s) suppressed by allowlist\n", res.Suppressed)
	}
	if bad {
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -analyzers value against
// the registry. Empty means the full registry (lint.Run's default);
// an unknown or empty name is an error naming the valid choices.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return nil, nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a := lint.ByName(name)
		if a == nil {
			var known []string
			for _, r := range lint.Registry() {
				known = append(known, r.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// report is the version-3 JSON schema emitted by -json and preserved
// by CI as solarvet-report.json. findings encodes as [] rather than
// null on a clean tree so consumers can index it unconditionally;
// TestJSONSchemaRoundTrip pins the layout.
type report struct {
	Version  int            `json:"version"`
	Findings []lint.Finding `json:"findings"`
	Summary  reportSummary  `json:"summary"`
}

type reportSummary struct {
	// TotalFindings counts findings that survived the allowlist — the
	// list above.
	TotalFindings int `json:"total_findings"`
	// Suppressed counts allowlisted findings.
	Suppressed int `json:"suppressed"`
	// Analyzers has one entry per analyzer that ran, zero counts
	// included.
	Analyzers map[string]reportAnalyzer `json:"analyzers"`
}

type reportAnalyzer struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
}

// buildReport assembles the version-3 report from a run result.
func buildReport(res *lint.Result, analyzers []*lint.Analyzer) report {
	if analyzers == nil {
		analyzers = lint.Registry()
	}
	perAnalyzer := map[string]reportAnalyzer{}
	for _, a := range analyzers {
		perAnalyzer[a.Name] = reportAnalyzer{Suppressed: res.SuppressedBy[a.Name]}
	}
	for _, f := range res.Findings {
		ra := perAnalyzer[f.Analyzer]
		ra.Findings++
		perAnalyzer[f.Analyzer] = ra
	}
	findings := res.Findings
	if findings == nil {
		findings = []lint.Finding{}
	}
	return report{Version: 3, Findings: findings, Summary: reportSummary{
		TotalFindings: len(res.Findings),
		Suppressed:    res.Suppressed,
		Analyzers:     perAnalyzer,
	}}
}

// writeJSON emits the report with stable indentation.
func writeJSON(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
