package lint

import (
	"strings"
	"sync"
	"testing"
)

// loadCGFixture loads the shared call-graph fixture module and returns
// its graph. The module cache keeps repeated loads cheap across tests.
func loadCGFixture(t *testing.T) *CallGraph {
	t.Helper()
	mod, err := LoadModuleCached("testdata/_callgraph")
	if err != nil {
		t.Fatal(err)
	}
	return mod.CallGraph()
}

// mustNode fails the test unless the graph has a node with the name.
func mustNode(t *testing.T, g *CallGraph, name string) *CGNode {
	t.Helper()
	n := g.NodeByName(name)
	if n == nil {
		var names []string
		for _, c := range g.Nodes {
			names = append(names, c.Name)
		}
		t.Fatalf("no node %q; have:\n  %s", name, strings.Join(names, "\n  "))
	}
	return n
}

// edgeKind returns the kind of the from→to edge, or -1 if absent.
func edgeKind(from, to *CGNode) EdgeKind {
	for _, e := range from.Calls {
		if e.To == to {
			return e.Kind
		}
	}
	return EdgeKind(-1)
}

// TestCallGraphEdges pins the edge kinds BuildCallGraph resolves:
// static calls, go/defer thunks, CHA interface dispatch, dynamic
// function-value calls matched by signature, and callbacks into a
// generic callee.
func TestCallGraphEdges(t *testing.T) {
	g := loadCGFixture(t)
	main := mustNode(t, g, "cg.example.Main")
	sum := mustNode(t, g, "cg.example.Sum")
	measure := mustNode(t, g, "cg.example.Measure")
	apply := mustNode(t, g, "cg.example.Apply")
	helper := mustNode(t, g, "cg.example.Helper")
	background := mustNode(t, g, "cg.example.Background")
	cleanup := mustNode(t, g, "cg.example.Cleanup")
	squareArea := mustNode(t, g, "(cg.example.Square).Area")
	circleArea := mustNode(t, g, "(*cg.example.Circle).Area")
	lit := mustNode(t, g, "cg.example.Main$1")
	memo := mustNode(t, g, "cg.example.Memo")
	memoLit := mustNode(t, g, "cg.example.Main$2")

	cases := []struct {
		from, to *CGNode
		kind     EdgeKind
	}{
		{main, sum, EdgeStatic},
		{main, measure, EdgeStatic},
		{main, apply, EdgeStatic},
		{main, background, EdgeStatic}, // go thunk
		{main, cleanup, EdgeStatic},    // defer thunk
		{measure, squareArea, EdgeInterface},
		{measure, circleArea, EdgeInterface},
		{apply, helper, EdgeDynamic},
		{apply, lit, EdgeDynamic},
		{main, memo, EdgeStatic},
		{main, memoLit, EdgeCallback}, // passed to a generic callee
	}
	for _, c := range cases {
		if got := edgeKind(c.from, c.to); got != c.kind {
			t.Errorf("edge %s → %s: kind = %v, want %v", c.from.Name, c.to.Name, got, c.kind)
		}
	}
	// The interface call must NOT resolve statically to the island.
	island := mustNode(t, g, "cg.example.Island")
	if k := edgeKind(main, island); k != EdgeKind(-1) {
		t.Errorf("spurious edge Main → Island (%v)", k)
	}
}

// TestReachability pins BFS reachability and the rendered call path.
func TestReachability(t *testing.T) {
	g := loadCGFixture(t)
	main := mustNode(t, g, "cg.example.Main")
	parents := g.Reachable(main)

	for _, name := range []string{
		"cg.example.Sum", "cg.example.Measure", "cg.example.Apply",
		"cg.example.Helper", "cg.example.Background", "cg.example.Cleanup",
		"(cg.example.Square).Area", "(*cg.example.Circle).Area",
		"cg.example.Main$1",
	} {
		if _, ok := parents[mustNode(t, g, name)]; !ok {
			t.Errorf("%s not reachable from Main", name)
		}
	}
	island := mustNode(t, g, "cg.example.Island")
	if _, ok := parents[island]; ok {
		t.Error("Island should not be reachable from Main")
	}
	if p, ok := parents[main]; !ok || p != nil {
		t.Errorf("root parent = %v, want nil", p)
	}

	helper := mustNode(t, g, "cg.example.Helper")
	path := CallPath(parents, helper)
	if !strings.Contains(path, "Apply") || !strings.Contains(path, "Helper") ||
		!strings.Contains(path, "→") {
		t.Errorf("CallPath(Main..Helper) = %q, want Apply → Helper rendering", path)
	}

	// Rooting at the island reaches Sum with the island as parent.
	ip := g.Reachable(island)
	sum := mustNode(t, g, "cg.example.Sum")
	if ip[sum] != island {
		t.Errorf("parent of Sum from Island = %v", ip[sum])
	}
}

// TestCallGraphConcurrentUse races graph construction and traversal:
// Module.CallGraph must hand every caller the same immutable graph
// (this test is meaningful under -race).
func TestCallGraphConcurrentUse(t *testing.T) {
	mod, err := LoadModuleCached("testdata/_callgraph")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	graphs := make([]*CallGraph, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := mod.CallGraph()
			graphs[i] = g
			if main := g.NodeByName("cg.example.Main"); main != nil {
				g.Reachable(main)
			}
		}(i)
	}
	wg.Wait()
	for i, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("goroutine %d saw graph %p, want shared %p", i, g, graphs[0])
		}
	}
}
