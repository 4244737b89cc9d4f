// Package lint is solarvet's engine: a repo-specific static-analysis
// suite built only on the standard library's go/ast, go/parser, go/token
// and go/types packages (the module must stay dependency-free).
//
// The analyzers encode numerical and reproducibility invariants the Go
// compiler cannot see but the paper's results depend on: tolerance-based
// float comparison, explicitly seeded randomness, unit-annotated physical
// quantities, checked errors, and escaped SVG text. cmd/solarvet is the
// CLI front end; lint_test.go at the repository root runs the same
// registry in-process so `go test ./...` enforces a clean tree.
//
// See DESIGN.md ("Static analysis & determinism policy") for the rule
// rationale and how to extend the registry or the allowlist.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report at a source position.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"` // slash path relative to the module root
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the canonical `file:line:col: [analyzer] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files are the package's parsed sources, sorted by file name.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path the analyzer should reason about.
	// Fixture tests may override it (solarvet:pkgpath directive) to
	// exercise path-scoped rules outside their real directory.
	Path string
	// Dep resolves an intra-module import path to its loaded package
	// when the whole module was loaded together; nil in single-package
	// runs (fixtures), where cross-package information degrades to
	// analyzer-specific defaults (unitflow: unknown units).
	Dep func(path string) *Package

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass hands the whole loaded module — with its call graph — to
// one inter-procedural analyzer.
type ModulePass struct {
	Fset   *token.FileSet
	Module *Module
	// Graph is the module call graph (see callgraph.go), shared by all
	// module-level analyzers of one run.
	Graph *CallGraph
	// Budgets are the hotcost cost budgets parsed from the allowlist,
	// keyed by root name; nil without an allowlist. Analyzers mark the
	// entries they consult used, feeding the staleness ratchet.
	Budgets map[string]*BudgetEntry

	report func(Finding)
}

// Reportf records a module-level finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Directive returns every `//solarvet:<name> <value>` comment across
// the module's files, in file order. Fixture packages use directives to
// declare entry-point roots and budgets that the real tree wires up in
// analyzer defaults and the allowlist.
func (p *ModulePass) Directive(name string) []string {
	var out []string
	prefix := "//solarvet:" + name + " "
	for _, pkg := range p.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
						out = append(out, strings.TrimSpace(rest))
					}
				}
			}
		}
	}
	return out
}

// Analyzer is one named rule over a type-checked package (Run) or over
// the whole module and its call graph (RunModule). Exactly one of the
// two is set.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph rule statement shown by `solarvet -rules`.
	Doc string
	// Applies filters packages by import path; nil means every package.
	// Module-level analyzers ignore it.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
	// RunModule marks an inter-procedural analyzer: it runs once per
	// lint.Run over the loaded module, after the per-package fan-out.
	RunModule func(*ModulePass)
}

// Registry returns the full analyzer suite in stable order.
func Registry() []*Analyzer {
	return []*Analyzer{
		AnalyzerFloatEq,
		AnalyzerSeededRand,
		AnalyzerUnitComment,
		AnalyzerUnitFlow,
		AnalyzerErrCheck,
		AnalyzerRawXML,
		AnalyzerCtxFlow,
		AnalyzerLockCheck,
		AnalyzerSpawnCheck,
		AnalyzerMetricName,
		AnalyzerDetCheck,
		AnalyzerHotCost,
		AnalyzerEscapeHint,
	}
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Registry() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies every applicable analyzer to one package and
// returns the findings sorted by position. dep resolves intra-module
// import paths for analyzers that consult dependency packages; it may
// be nil (fixtures, single-package runs).
func RunAnalyzers(analyzers []*Analyzer, pkg *Package, fset *token.FileSet, dep func(path string) *Package) []Finding {
	var out []Finding
	for _, a := range analyzers {
		if a.Run == nil {
			continue // module-level analyzers run via RunModuleAnalyzers
		}
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Fset:  fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			Path:  pkg.Path,
			Dep:   dep,
		}
		name := a.Name
		pass.report = func(f Finding) {
			f.Analyzer = name
			out = append(out, f)
		}
		a.Run(pass)
	}
	SortFindings(out)
	return out
}

// RunModuleAnalyzers applies the module-level (inter-procedural)
// analyzers to mod, sharing one call graph, and returns the findings
// sorted by position. budgets carries the allowlist's hotcost budget
// entries; it may be nil.
func RunModuleAnalyzers(analyzers []*Analyzer, mod *Module, budgets map[string]*BudgetEntry) []Finding {
	var out []Finding
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = mod.CallGraph()
		}
		pass := &ModulePass{Fset: mod.Fset, Module: mod, Graph: graph, Budgets: budgets}
		name := a.Name
		pass.report = func(f Finding) {
			f.Analyzer = name
			out = append(out, f)
		}
		a.RunModule(pass)
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer, message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// errorType is the universe error interface, shared by analyzers.
var errorType = types.Universe.Lookup("error").Type()

// isFloat reports whether t is (or is an alias/defined type of) a
// floating-point type, including untyped float constants.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether t has string underlying type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// calleeFunc resolves the called function object of a call expression,
// unwrapping parens; it returns nil for builtins, conversions, and calls
// through function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// namedIn reports whether t (after pointer unwrapping) is the named type
// pkgPath.name.
func namedIn(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// hasPathPrefix reports whether pkg equals prefix or sits below it.
func hasPathPrefix(pkg, prefix string) bool {
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}
