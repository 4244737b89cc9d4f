package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is solarvet's inter-procedural layer: a call graph over the
// loaded module, built from the cached type-check results, with
// reachability queries rooted at declared entry points. The
// construction rules (DESIGN.md §14) are deliberately conservative —
// the graph over-approximates "may call", never under-approximates —
// because its two clients assert safety properties: detcheck proves the
// absence of nondeterminism on the cached-result path, and hotcost
// bounds the allocation sites reachable from the tick loop.
//
// Edges:
//
//   - static:    a call that resolves to a module function or concrete
//                method, including the thunks of go/defer statements;
//   - interface: a call through an interface method links to every
//                module method whose concrete receiver type implements
//                that interface (class-hierarchy analysis over the
//                module's method sets);
//   - dynamic:   a call through a function value links to every
//                address-taken module function and function literal
//                with an identical signature;
//   - callback:  a function value passed to a function outside the
//                module (stdlib, whose body solarvet never sees) is
//                assumed to be invoked by it, and so is one passed to
//                a generic module function (see edgeTo).
//
// Calls that resolve to non-module functions are kept on the caller as
// ExtCalls — detcheck's nondeterminism sources (time.Now, the global
// math/rand, os environment and filesystem reads) live there. A dynamic
// call whose signature matches an address-taken *external* function
// (e.g. time.Now stored in a Clock field) is recorded the same way,
// marked Dynamic.

// EdgeKind classifies how a call-graph edge was derived.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a module function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved to a
	// concrete module method by implements-matching.
	EdgeInterface
	// EdgeDynamic is a call through a function value, resolved to an
	// address-taken function or literal by signature matching.
	EdgeDynamic
	// EdgeCallback marks a function value handed to a non-module callee,
	// conservatively assumed to be invoked by it.
	EdgeCallback
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeDynamic:
		return "dynamic"
	case EdgeCallback:
		return "callback"
	}
	return "edge?"
}

// CGNode is one function in the call graph: a declared function or
// method (Obj set) or a function literal (Lit set).
type CGNode struct {
	// Name is the stable human-readable identity: types.Func.FullName
	// for declarations ("solarcore/internal/sim.RunMPPT",
	// "(*solarcore.Runner).Run"), the enclosing node's name plus "$n"
	// for the n-th literal inside it.
	Name string
	Obj  *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package
	Pos  token.Pos
	// Calls are the module-internal out-edges, in source order.
	Calls []CGEdge
	// Ext are calls resolving outside the module, in source order.
	Ext []ExtCall
}

// CGEdge is one resolved module-internal call.
type CGEdge struct {
	To   *CGNode
	Pos  token.Pos
	Kind EdgeKind
}

// ExtCall is a call leaving the module (stdlib; the module has no other
// dependencies). Dynamic marks resolution through an address-taken
// function value rather than a direct call.
type ExtCall struct {
	Fn      *types.Func
	Pos     token.Pos
	Dynamic bool
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes holds every function in a stable order: packages by import
	// path, declarations by position, literals after their parent.
	Nodes []*CGNode

	byObj  map[*types.Func]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
	byName map[string]*CGNode
}

// NodeByName returns the node with the exact Name, or nil.
func (g *CallGraph) NodeByName(name string) *CGNode { return g.byName[name] }

// Reachable walks the graph breadth-first from roots and returns the
// BFS tree as a child→parent map (roots map to nil). Every key is
// reachable; parents give a shortest call path back to a root.
func (g *CallGraph) Reachable(roots ...*CGNode) map[*CGNode]*CGNode {
	parent := make(map[*CGNode]*CGNode)
	var queue []*CGNode
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, seen := parent[r]; seen {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if _, seen := parent[e.To]; seen {
				continue
			}
			parent[e.To] = n
			queue = append(queue, e.To)
		}
	}
	return parent
}

// CallPath renders the call chain from a BFS root down to n, e.g.
// "RunMPPT → Track → Current". Long chains elide the middle.
func CallPath(parent map[*CGNode]*CGNode, n *CGNode) string {
	var chain []string
	for at := n; at != nil; at = parent[at] {
		chain = append(chain, shortName(at.Name))
		if _, ok := parent[at]; !ok {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) > 5 {
		chain = append(chain[:2], append([]string{"…"}, chain[len(chain)-2:]...)...)
	}
	return strings.Join(chain, " → ")
}

// shortName strips package paths from a node name for path rendering:
// "(*solarcore/internal/serve.Server).Result" → "(*serve.Server).Result".
func shortName(name string) string {
	out := name
	for {
		slash := strings.LastIndex(out, "/")
		if slash < 0 {
			return out
		}
		// Remove back to the preceding delimiter, keeping the last path
		// element (the package name).
		start := strings.LastIndexAny(out[:slash], "(* ") + 1
		out = out[:start] + out[slash+1:]
	}
}

// origin resolves a possibly-instantiated generic function to its
// declaration object, the identity the graph is keyed on.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// BuildCallGraph constructs the call graph of a loaded module.
func BuildCallGraph(mod *Module) *CallGraph {
	b := &cgBuilder{
		g: &CallGraph{
			byObj:  map[*types.Func]*CGNode{},
			byLit:  map[*ast.FuncLit]*CGNode{},
			byName: map[string]*CGNode{},
		},
		addrFuncs: map[*types.Func]bool{},
		addrLits:  map[*ast.FuncLit]bool{},
	}
	// Pass 1: one node per declaration and per literal; collect the
	// address-taken sets and every module interface/named type.
	for _, pkg := range mod.Pkgs {
		b.collectPkg(pkg)
	}
	// Pass 2: resolve calls into edges.
	for _, n := range b.g.Nodes {
		if n.Body != nil {
			b.resolveBody(n)
		}
	}
	for _, n := range b.g.Nodes {
		sort.SliceStable(n.Calls, func(i, j int) bool { return n.Calls[i].Pos < n.Calls[j].Pos })
		sort.SliceStable(n.Ext, func(i, j int) bool { return n.Ext[i].Pos < n.Ext[j].Pos })
	}
	return b.g
}

type cgBuilder struct {
	g *CallGraph
	// addrFuncs / addrLits are functions whose value escapes into a
	// variable, field, argument or return — the candidate targets of
	// dynamic calls. External functions (time.Now) are included.
	addrFuncs map[*types.Func]bool
	addrLits  map[*ast.FuncLit]bool
	// concrete is every named non-interface type declared in the module,
	// the candidate receiver set for interface-call resolution.
	concrete []types.Type
}

// collectPkg creates nodes for pkg's declarations and literals, marks
// address-taken function values, and gathers concrete named types.
func (b *cgBuilder) collectPkg(pkg *Package) {
	if pkg.Types != nil {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // generic types are only ever called at concrete instantiations
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
				b.concrete = append(b.concrete, tn.Type())
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &CGNode{Name: obj.FullName(), Obj: obj, Body: fd.Body, Pkg: pkg, Pos: fd.Pos()}
			b.addNode(n)
			b.collectLits(n, fd.Body, pkg)
		}
		// Package-level var initializers may hold literals and calls;
		// attach them to a synthetic per-file init node.
		initNode := &CGNode{Name: pkg.Path + ".init", Pkg: pkg, Pos: file.Pos()}
		hasInit := false
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				hasInit = true
				for _, v := range vs.Values {
					b.collectLitsExpr(initNode, v, pkg)
				}
			}
		}
		if hasInit {
			b.addNode(initNode)
		}
	}
	// Address-taken marking is a full-file walk: any use of a function
	// identifier or literal outside call position.
	for _, file := range pkg.Files {
		b.markAddressTaken(pkg, file)
	}
}

// addNode registers n, keeping names unique (init nodes can collide
// across files of one package).
func (b *cgBuilder) addNode(n *CGNode) {
	base, i := n.Name, 1
	for b.g.byName[n.Name] != nil {
		i++
		n.Name = base + "#" + strconv.Itoa(i)
	}
	b.g.byName[n.Name] = n
	b.g.Nodes = append(b.g.Nodes, n)
	if n.Obj != nil {
		b.g.byObj[origin(n.Obj)] = n
	}
	if n.Lit != nil {
		b.g.byLit[n.Lit] = n
	}
}

// collectLits creates child nodes for every function literal under
// body, excluding literals nested inside other literals (those belong
// to the inner literal's own collection pass).
func (b *cgBuilder) collectLits(parent *CGNode, body *ast.BlockStmt, pkg *Package) {
	if body == nil {
		return
	}
	b.collectLitsExpr(parent, body, pkg)
}

func (b *cgBuilder) collectLitsExpr(parent *CGNode, root ast.Node, pkg *Package) {
	seq := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		seq++
		child := &CGNode{Name: parent.Name + "$" + strconv.Itoa(seq), Lit: lit, Body: lit.Body, Pkg: pkg, Pos: lit.Pos()}
		b.addNode(child)
		b.collectLits(child, lit.Body, pkg)
		return false // inner literals belong to child
	}
	ast.Inspect(root, walk)
}

// markAddressTaken records function values used outside call position.
func (b *cgBuilder) markAddressTaken(pkg *Package, file *ast.File) {
	// callees are the expressions in direct call position; selSels are
	// the Sel idents of every selector (handled via their SelectorExpr,
	// never as bare idents). Uses elsewhere are the address-taken ones.
	callees := map[ast.Expr]bool{}
	selSels := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			callees[ast.Unparen(e.Fun)] = true
		case *ast.SelectorExpr:
			selSels[e.Sel] = true
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if !callees[ast.Expr(e)] {
				b.addrLits[e] = true
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok && !callees[ast.Expr(e)] && !selSels[e] {
				b.addrFuncs[origin(fn)] = true
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok && !callees[ast.Expr(e)] {
				b.addrFuncs[origin(fn)] = true
			}
		}
		return true
	})
}

// resolveBody turns n's calls into edges, skipping nested literal
// bodies (they resolve as their own nodes).
func (b *cgBuilder) resolveBody(n *CGNode) {
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			b.resolveCall(n, call)
		}
		return true
	}
	if n.Lit != nil {
		ast.Inspect(n.Lit, walk)
		return
	}
	if n.Body != nil {
		ast.Inspect(n.Body, walk)
		return
	}
}

// resolveCall classifies one call expression and appends the resulting
// edges or external records to caller.
func (b *cgBuilder) resolveCall(caller *CGNode, call *ast.CallExpr) {
	info := caller.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Direct call of a function literal: (func(){...})().
	if lit, ok := fun.(*ast.FuncLit); ok {
		if to := b.g.byLit[lit]; to != nil {
			caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: call.Lparen, Kind: EdgeStatic})
		}
		return
	}

	// Conversions and builtins are not calls for the graph's purposes.
	if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}

	var callee *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[f.Sel].(*types.Func)
		if callee != nil {
			if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					b.resolveInterfaceCall(caller, call, callee)
					return
				}
			}
		}
	}
	if callee != nil {
		b.edgeTo(caller, call, origin(callee))
		return
	}

	// Dynamic call through a function value: match address-taken
	// functions and literals by signature.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	b.resolveDynamic(caller, call, sig)
}

// edgeTo links caller to a resolved concrete callee: a static edge for
// module functions, an ExtCall otherwise. Function values passed as
// arguments to a non-module or generic callee become callback edges.
func (b *cgBuilder) edgeTo(caller *CGNode, call *ast.CallExpr, callee *types.Func) {
	if to := b.g.byObj[callee]; to != nil {
		caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: call.Lparen, Kind: EdgeStatic})
		if sig := callee.Type().(*types.Signature); sig.TypeParams().Len()+sig.RecvTypeParams().Len() == 0 {
			return
		}
	} else {
		caller.Ext = append(caller.Ext, ExtCall{Fn: callee, Pos: call.Lparen})
	}
	// The body is invisible, or calls through type-parameter signatures
	// no value matches; assume it may invoke any function value it gets.
	for _, arg := range call.Args {
		b.callbackEdge(caller, ast.Unparen(arg))
	}
}

// callbackEdge links caller to a function value escaping into an
// opaque callee.
func (b *cgBuilder) callbackEdge(caller *CGNode, arg ast.Expr) {
	info := caller.Pkg.Info
	switch a := arg.(type) {
	case *ast.FuncLit:
		if to := b.g.byLit[a]; to != nil {
			caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: a.Pos(), Kind: EdgeCallback})
		}
	case *ast.Ident:
		if fn, ok := info.Uses[a].(*types.Func); ok {
			if to := b.g.byObj[origin(fn)]; to != nil {
				caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: a.Pos(), Kind: EdgeCallback})
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
			if to := b.g.byObj[origin(fn)]; to != nil {
				caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: a.Pos(), Kind: EdgeCallback})
			}
		}
	}
}

// resolveInterfaceCall links an interface method call to every module
// method implementing it (and records nothing external: stdlib
// implementations are invisible and assumed pure by detcheck's explicit
// source list).
func (b *cgBuilder) resolveInterfaceCall(caller *CGNode, call *ast.CallExpr, ifaceMethod *types.Func) {
	name := ifaceMethod.Name()
	isig, _ := ifaceMethod.Type().(*types.Signature)
	for _, t := range b.concrete {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			obj, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), name)
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			msig, _ := m.Type().(*types.Signature)
			if msig == nil || isig == nil || !implementsMethod(recv, ifaceMethod) {
				continue
			}
			if to := b.g.byObj[origin(m)]; to != nil {
				caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: call.Lparen, Kind: EdgeInterface})
			}
			break // the pointer method set includes the value's; one edge is enough
		}
	}
}

// implementsMethod reports whether recv's method set satisfies the
// interface declaring m.
func implementsMethod(recv types.Type, m *types.Func) bool {
	iface, ok := ifaceOf(m)
	if !ok {
		return false
	}
	return types.Implements(recv, iface)
}

// ifaceOf recovers the interface type a method was declared on.
func ifaceOf(m *types.Func) (*types.Interface, bool) {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	return iface, ok
}

// resolveDynamic links a function-value call to every address-taken
// candidate with an identical signature.
func (b *cgBuilder) resolveDynamic(caller *CGNode, call *ast.CallExpr, sig *types.Signature) {
	key := sigKey(sig)
	for fn := range b.addrFuncs {
		fsig, ok := fn.Type().(*types.Signature)
		if !ok || sigKey(fsig) != key {
			continue
		}
		if to := b.g.byObj[fn]; to != nil {
			caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: call.Lparen, Kind: EdgeDynamic})
		} else {
			caller.Ext = append(caller.Ext, ExtCall{Fn: fn, Pos: call.Lparen, Dynamic: true})
		}
	}
	for lit := range b.addrLits {
		if to := b.g.byLit[lit]; to != nil {
			litSig, ok := to.Pkg.Info.TypeOf(lit).(*types.Signature)
			if ok && sigKey(litSig) == key {
				caller.Calls = append(caller.Calls, CGEdge{To: to, Pos: call.Lparen, Kind: EdgeDynamic})
			}
		}
	}
}

// sigKey renders a signature as a canonical string ignoring parameter
// names and any receiver: the identity dynamic resolution matches on.
func sigKey(sig *types.Signature) string {
	var sb strings.Builder
	sb.WriteString("func(")
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(typeKey(params.At(i).Type()))
	}
	if sig.Variadic() {
		sb.WriteString("...")
	}
	sb.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(typeKey(results.At(i).Type()))
	}
	sb.WriteString(")")
	return sb.String()
}

// typeKey renders a type with full package paths, so identical names in
// different packages never collide.
func typeKey(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}
