package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// AnalyzerMetricName enforces the observability naming contract of
// internal/obs (DESIGN.md §10 conventions, §13 enforcement):
//
//   - counter names (Registry.Add) end in `_total`; gauge (Set) and
//     histogram (Observe) names must not carry that suffix;
//   - names are snake_case, with an optional `{label=value}` suffix for
//     per-entity gauges;
//   - one base name keeps one metric kind: the same name must not be a
//     counter in one call and a gauge or histogram in another, or the
//     merged fleet snapshot reads as two different quantities;
//   - a counter is registered from exactly one call site per package —
//     hoist the name to a constant and increment through one helper
//     when several paths must bump it;
//   - obs.Event literals select their payload with the Type* constants,
//     never a raw string, so the versioned-envelope grammar stays in one
//     place.
var AnalyzerMetricName = &Analyzer{
	Name: "metricname",
	Doc: "obs naming contract: counters end in _total, names are " +
		"snake_case, one kind and one registration site per name, and " +
		"JSONL event types come from the obs.Type* constants",
	Run: runMetricName,
}

// metricUse is one statically resolvable Registry call.
type metricUse struct {
	kind string // "counter", "gauge" or "histogram"
	base string // name with any {label...} suffix stripped
	pos  token.Pos
}

func runMetricName(p *Pass) {
	var uses []metricUse
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if u, ok := registryCall(p, n); ok {
					uses = append(uses, u)
				}
			case *ast.CompositeLit:
				checkEventLiteral(p, n)
			}
			return true
		})
	}
	checkMetricUses(p, uses)
}

// registryCall recognizes (obs.Registry).Add/Set/Observe calls and
// resolves the metric name's statically known part. Names built from a
// wholly dynamic expression are skipped — there is nothing to check.
func registryCall(p *Pass, call *ast.CallExpr) (metricUse, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) < 1 {
		return metricUse{}, false
	}
	var kind string
	switch sel.Sel.Name {
	case "Add":
		kind = "counter"
	case "Set":
		kind = "gauge"
	case "Observe":
		kind = "histogram"
	default:
		return metricUse{}, false
	}
	if !namedIn(p.Info.TypeOf(sel.X), "solarcore/internal/obs", "Registry") {
		return metricUse{}, false
	}
	name, exact, ok := staticNamePrefix(p.Info, call.Args[0])
	if !ok {
		return metricUse{}, false
	}
	base, _, hadLabel := strings.Cut(name, "{")
	if !exact && !hadLabel {
		// A dynamic suffix without a { delimiter means the base name
		// itself is unknown; stay silent.
		if !strings.HasSuffix(name, "_") {
			return metricUse{}, false
		}
		base = strings.TrimSuffix(base, "_")
	}
	if base == "" {
		return metricUse{}, false
	}
	// The suffix is checkable when the whole name resolved or a { label
	// delimiter bounds the base; a bare dynamic tail leaves it unknown.
	checkMetricName(p, kind, base, exact || hadLabel, call.Args[0])
	return metricUse{kind: kind, base: base, pos: call.Pos()}, true
}

// staticNamePrefix resolves the constant value of a name argument, or
// the constant left prefix of a `+` concatenation ("name{node=" + n).
// exact reports whether the whole name was resolved.
func staticNamePrefix(info *types.Info, arg ast.Expr) (name string, exact, ok bool) {
	if tv, found := info.Types[arg]; found && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true, true
	}
	bin, isBin := ast.Unparen(arg).(*ast.BinaryExpr)
	if !isBin || bin.Op != token.ADD {
		return "", false, false
	}
	left := bin.X
	for {
		if tv, found := info.Types[left]; found && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value), false, true
		}
		inner, isInner := ast.Unparen(left).(*ast.BinaryExpr)
		if !isInner || inner.Op != token.ADD {
			return "", false, false
		}
		left = inner.X
	}
}

// checkMetricName validates one resolved name: snake_case always, the
// _total suffix convention per kind only when suffixKnown (a dynamic
// name tail makes the suffix unknowable).
func checkMetricName(p *Pass, kind, base string, suffixKnown bool, arg ast.Expr) {
	pos := arg.Pos()
	if !isSnakeCase(base) {
		p.Reportf(pos, "metric name %q is not snake_case ([a-z0-9_], starting with a letter)", base)
		return
	}
	if !suffixKnown {
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(base, "_total") {
			p.Reportf(pos, "counter %q must end in _total (obs naming contract)", base)
		}
	case "gauge", "histogram":
		if strings.HasSuffix(base, "_total") {
			p.Reportf(pos, "%s %q must not end in _total — that suffix marks monotonic counters", kind, base)
		}
	}
}

// isSnakeCase reports whether s is lowercase snake_case.
func isSnakeCase(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// checkMetricUses applies the cross-call rules: one kind per base name
// and one registration site per counter, both package-wide.
func checkMetricUses(p *Pass, uses []metricUse) {
	firstKind := map[string]metricUse{}
	counterSites := map[string][]metricUse{}
	for _, u := range uses {
		if first, seen := firstKind[u.base]; seen && first.kind != u.kind {
			p.Reportf(u.pos, "metric %q already used as a %s at %s; one name keeps one kind "+
				"— rename this %s", u.base, first.kind, siteRef(p.Fset, first.pos, u.pos), u.kind)
		} else if !seen {
			firstKind[u.base] = u
		}
		if u.kind == "counter" {
			counterSites[u.base] = append(counterSites[u.base], u)
		}
	}
	for base, sites := range counterSites {
		for _, extra := range sites[1:] {
			p.Reportf(extra.pos, "counter %q is already registered at %s; keep one call site "+
				"per counter (hoist the increment into a helper)", base, siteRef(p.Fset, sites[0].pos, extra.pos))
		}
	}
}

// siteRef renders a prior call site relative to the reporting one: bare
// "line N" within the same file, "file.go line N" across files.
func siteRef(fset *token.FileSet, prior, here token.Pos) string {
	pp, hp := fset.Position(prior), fset.Position(here)
	if pp.Filename == hp.Filename {
		return fmt.Sprintf("line %d", pp.Line)
	}
	return fmt.Sprintf("%s line %d", filepath.Base(pp.Filename), pp.Line)
}

// checkEventLiteral flags obs.Event composite literals whose Type field
// is a raw string instead of a Type* constant, and Type* constants whose
// value breaks the snake_case event grammar.
func checkEventLiteral(p *Pass, lit *ast.CompositeLit) {
	t := p.Info.TypeOf(lit)
	if t == nil || !namedIn(t, "solarcore/internal/obs", "Event") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Type" {
			continue
		}
		value := ast.Unparen(kv.Value)
		if _, isRaw := value.(*ast.BasicLit); isRaw {
			p.Reportf(kv.Value.Pos(), "obs.Event.Type set from a raw string; use the Type* "+
				"discriminator constants so the envelope grammar stays versioned in one place")
			continue
		}
		if tv, found := p.Info.Types[kv.Value]; found && tv.Value != nil &&
			tv.Value.Kind() == constant.String && !isSnakeCase(constant.StringVal(tv.Value)) {
			p.Reportf(kv.Value.Pos(), "event type %q is not snake_case; the JSONL envelope "+
				"grammar requires [a-z0-9_] discriminators", constant.StringVal(tv.Value))
		}
	}
}
