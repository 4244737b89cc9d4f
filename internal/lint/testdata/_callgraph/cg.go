// Package cg is the shared call-graph fixture: one small module
// exercising every edge kind BuildCallGraph resolves — static calls,
// methods, interface dispatch, go/defer statements, function values,
// closures passed to higher-order and generic functions, and an unreachable
// island. callgraph_test.go asserts the resulting shape.
package cg

// Shape is dispatched through an interface below; both concrete
// implementations must become CHA edges.
type Shape interface {
	Area() float64
}

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

type Circle struct{ R float64 }

func (c *Circle) Area() float64 { return 3 * c.R * c.R }

// Main is the fixture root.
func Main() float64 {
	total := Sum([]float64{1, 2})
	var sh Shape = Square{Side: 2}
	total += Measure(sh)
	go Background()
	defer Cleanup()
	f := Helper // address-taken: dynamic calls of this signature may hit Helper
	total += Apply(f)
	total += Apply(func(x float64) float64 { return x + 1 })
	total += Memo(func() float64 { return 4 })
	return total
}

// Sum is a plain static callee.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Measure dispatches through the Shape interface.
func Measure(s Shape) float64 { return s.Area() }

// Apply calls a function value: a dynamic edge to every address-taken
// function or literal with a matching signature.
func Apply(f func(float64) float64) float64 { return f(2) }

// Memo calls fill through a type-parameter signature: a callback edge.
func Memo[V any](fill func() V) V { return fill() }

// Helper is only ever called through a function value.
func Helper(x float64) float64 { return x * 2 }

// Background and Cleanup are reached via go/defer thunks.
func Background() {}
func Cleanup()    {}

// Island is unreachable from Main.
func Island() float64 { return Sum([]float64{3}) }
