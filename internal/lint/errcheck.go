package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerErrCheck flags calls whose error result is silently dropped.
//
// A call used as a bare statement (or under go/defer) that returns an
// error discards it invisibly; the simulator's CSV importers, CLI front
// ends and report writers must either handle the error or discard it
// explicitly with `_ =`, which this rule accepts as a visible, greppable
// decision.
//
// Writers that are documented never to fail are exempt so the SVG/report
// builders stay idiomatic: fmt.Print/Printf/Println (operator-facing
// stdout diagnostics), fmt.Fprint* targeting a *strings.Builder,
// *bytes.Buffer, os.Stdout or os.Stderr, and methods on strings.Builder,
// bytes.Buffer and hash.Hash (all documented to never fail).
var AnalyzerErrCheck = &Analyzer{
	Name: "errcheck",
	Doc: "calls returning an error must not be used as bare statements; " +
		"handle the error or discard it explicitly with `_ =`",
	Run: runErrCheck,
}

func runErrCheck(p *Pass) {
	check := func(call *ast.CallExpr) {
		if call == nil || !returnsError(p.Info, call) || errcheckExempt(p.Info, call) {
			return
		}
		p.Reportf(call.Pos(), "unchecked error returned by %s; handle it or discard explicitly with `_ =`",
			calleeLabel(p.Info, call))
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ := ast.Unparen(s.X).(*ast.CallExpr)
				check(call)
			case *ast.GoStmt:
				check(s.Call)
			case *ast.DeferStmt:
				check(s.Call)
			}
			return true
		})
	}
}

// returnsError reports whether any result of the call has type error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false // builtin, conversion, or unresolved
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// errcheckExempt reports whether the call targets a never-fails writer.
func errcheckExempt(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		// strings.Builder, bytes.Buffer and hash.Hash writes are
		// documented never to return an error. Hash interfaces inherit
		// Write from io.Writer, so classify by the static type of the
		// receiver expression, not the method's declared receiver.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		rt := info.TypeOf(sel.X)
		return namedIn(rt, "strings", "Builder") || namedIn(rt, "bytes", "Buffer") ||
			namedIn(rt, "hash", "Hash") || namedIn(rt, "hash", "Hash32") || namedIn(rt, "hash", "Hash64")
	}
	if fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		w := ast.Unparen(call.Args[0])
		t := info.TypeOf(w)
		if namedIn(t, "strings", "Builder") || namedIn(t, "bytes", "Buffer") {
			return true
		}
		// os.Stdout / os.Stderr: diagnostics, same standing as fmt.Print.
		if sel, ok := w.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil &&
				v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr") {
				return true
			}
		}
	}
	return false
}

// calleeLabel names the callee for the diagnostic.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
