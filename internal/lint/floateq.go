package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// AnalyzerFloatEq flags `==`/`!=` between floating-point operands.
//
// The simulator's physical quantities are the product of iterative
// solvers (Newton, bisection, golden section); exact equality between two
// computed floats silently encodes an assumption about rounding that the
// paper's tolerance-based convergence criteria do not make. Comparisons
// must go through the tolerance helpers in internal/mathx
// (mathx.ApproxEq) — that package, which implements the helpers and the
// solvers' own exact bracketing guards, is exempt.
//
// One idiom stays legal everywhere: comparison against a constant exact
// zero (`x == 0`, `x != 0`). Zero is preserved exactly by assignment and
// these guards test "is this quantity unset / gated", not numerical
// convergence. The NaN trick `x != x` is flagged — use math.IsNaN.
var AnalyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc: "forbid ==/!= between floating-point operands outside internal/mathx; " +
		"compare with mathx.ApproxEq (constant-zero sentinel checks excepted)",
	Applies: func(path string) bool { return path != "solarcore/internal/mathx" },
	Run:     runFloatEq,
}

func runFloatEq(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.Info.TypeOf(be.X)) && !isFloat(p.Info.TypeOf(be.Y)) {
				return true
			}
			if isZeroConst(p, be.X) || isZeroConst(p, be.Y) {
				return true
			}
			p.Reportf(be.OpPos,
				"floating-point %s comparison; use mathx.ApproxEq (or compare against an exact zero sentinel)",
				be.Op)
			return true
		})
	}
}

// isZeroConst reports whether e is a compile-time numeric constant equal
// to exactly zero.
func isZeroConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
