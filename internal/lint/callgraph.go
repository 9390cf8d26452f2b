package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural foundation of the ackorder analyzer: a
// call graph over every function and function literal of the analyzed
// packages, with per-function primitive facts gathered in one AST walk. It is
// built once per Check call.
//
// Functions are keyed by types.Func.FullName() — e.g.
// "(*ftdag/internal/journal.Journal).Append" — which is stable across
// separately type-checked packages (the same method seen from source and from
// export data yields the same key). Function literals get synthetic keys
// derived from their position; they are nodes of their own, reached by an
// ordinary call edge when invoked immediately. A literal launched with a go
// statement, or one that escapes into a variable or parameter, is a node with
// no incoming edge: the launcher does not wait for it, and calls through
// function values are indirect, so the graph deliberately under-approximates
// them. A call of an interface method declared in the module has an edge to
// that method of every loaded package-level type that implements the
// interface (Graph.impls): it runs one of them.

// CallSite is one static call edge out of a function.
type CallSite struct {
	Callee string    // key of the called function
	Pos    token.Pos // position of the call expression
}

// FuncNode is one function or function literal in the call graph.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Pos  token.Pos
	Name string        // display name: declared name or "func literal"
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions

	Calls []CallSite

	// Durable is the parsed //lint:durable directive on the declaration
	// ("ack" or "fsync"), or "".
	Durable    string
	DurablePos token.Pos

	// CallsFileSync records a direct (*os.File).Sync call in this
	// function's own body, nested literals excluded. Consumed by the
	// ackorder directive sanity check.
	CallsFileSync bool

	callers int // static intramodule call sites targeting this node
}

// Body returns the function's statement block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Graph is the module-wide call graph plus the directive index.
type Graph struct {
	Funcs map[string]*FuncNode
	// order holds the keys in insertion (position) order so summary
	// fixpoints and reports do not depend on map iteration.
	order []string
	// types are the loaded packages' package-level named non-interface
	// types; impls maps the key of each interface method they call to the
	// keys of its implementations among those types.
	types []*types.Named
	impls map[string][]string
}

// Nodes invokes f over every function node in deterministic order.
func (g *Graph) Nodes(f func(*FuncNode)) {
	for _, k := range g.order {
		f(g.Funcs[k])
	}
}

// HasCallers reports whether the node is the target of at least one static
// intramodule call.
func (g *Graph) HasCallers(key string) bool {
	n := g.Funcs[key]
	return n != nil && n.callers > 0
}

// funcKey returns the graph key of a resolved callee, "" for nil.
func funcKey(f *types.Func) string {
	if f == nil {
		return ""
	}
	return f.FullName()
}

// buildGraph walks every healthy package once, creating one node per
// function declaration and function literal and one edge per resolvable
// call. Malformed //lint:durable directives are reported through report.
func buildGraph(fset *token.FileSet, pkgs []*Package, report func(Diagnostic)) *Graph {
	g := &Graph{Funcs: make(map[string]*FuncNode), impls: make(map[string][]string)}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
		if pkg.Types == nil {
			continue
		}
		loaded[pkg.Types.Path()] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					g.types = append(g.types, n)
				}
			}
		}
	}

	for _, pkg := range pkgs {
		// Directives are matched against declaration doc comments; every
		// //lint:durable comment must end up attached to some declaration.
		attached := make(map[*ast.Comment]bool)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(obj)
				if key == "" {
					continue
				}
				node := &FuncNode{Key: key, Pkg: pkg, Pos: fd.Pos(), Name: fd.Name.Name, Decl: fd}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						kind, ok := parseDurable(c)
						if !ok {
							continue
						}
						attached[c] = true
						pos := fset.Position(c.Pos())
						switch kind {
						case "ack", "fsync":
							if node.Durable != "" {
								report(Diagnostic{Pos: pos, Analyzer: "ackorder",
									Message: fmt.Sprintf("conflicting //lint:durable directives on %s (already %q)", fd.Name.Name, node.Durable)})
								continue
							}
							node.Durable = kind
							node.DurablePos = c.Pos()
						default:
							report(Diagnostic{Pos: pos, Analyzer: "ackorder",
								Message: fmt.Sprintf("malformed //lint:durable directive: want \"ack\" or \"fsync\", got %q", kind)})
						}
					}
				}
				g.add(node)
				collectBody(g, pkg, node, fd.Body, loaded)
			}
		}
		// A //lint:durable comment anywhere else is dead metadata — the
		// protocol check silently would not see it, so that is a finding.
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if _, ok := parseDurable(c); ok && !attached[c] {
						report(Diagnostic{Pos: fset.Position(c.Pos()), Analyzer: "ackorder",
							Message: "//lint:durable directive is not in a function declaration's doc comment; it has no effect"})
					}
				}
			}
		}
	}

	for _, n := range g.Funcs {
		for _, cs := range n.Calls {
			if callee := g.Funcs[cs.Callee]; callee != nil {
				callee.callers++
			}
		}
	}
	return g
}

func (g *Graph) add(n *FuncNode) {
	g.Funcs[n.Key] = n
	g.order = append(g.order, n.Key)
}

// parseDurable parses a //lint:durable comment, returning its argument and
// whether the comment is a durable directive at all.
func parseDurable(c *ast.Comment) (string, bool) {
	word, arg, ok := parseDirective(c)
	if !ok || word != "durable" {
		return "", false
	}
	return arg, true
}

// collectBody records the call edges and primitive facts of one function
// body into node, creating child nodes for nested function literals.
func collectBody(g *Graph, pkg *Package, node *FuncNode, body ast.Node, loaded map[string]bool) {
	info := pkg.Info

	handleLit := func(fl *ast.FuncLit) *FuncNode {
		lit := &FuncNode{
			Key:  fmt.Sprintf("%s·lit@%d", node.Key, fl.Pos()),
			Pkg:  pkg,
			Pos:  fl.Pos(),
			Name: "func literal",
			Lit:  fl,
		}
		g.add(lit)
		collectBody(g, pkg, lit, fl.Body, loaded)
		return lit
	}

	var walk func(root ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.GoStmt:
				// A launch is no call edge, but a launched literal is still
				// a node: ackorder judges an ack inside it by its key.
				if fl, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					handleLit(fl)
				}
				for _, a := range x.Call.Args {
					walk(a)
				}
				return false
			case *ast.CallExpr:
				if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
					lit := handleLit(fl)
					node.Calls = append(node.Calls, CallSite{Callee: lit.Key, Pos: x.Pos()})
					for _, a := range x.Args {
						walk(a)
					}
					return false
				}
				if isMethodOn(info, x, "os", "File", "Sync") {
					node.CallsFileSync = true
				}
				if f := calleeFunc(info, x); f != nil {
					if key := funcKey(f); loaded[pkgPathOf(f)] {
						node.Calls = append(node.Calls, CallSite{Callee: key, Pos: x.Pos()})
						for _, impl := range g.implementations(f) {
							node.Calls = append(node.Calls, CallSite{Callee: impl, Pos: x.Pos()})
						}
					}
				}
			case *ast.FuncLit:
				// Escaping literal: stored, passed, or returned. Node, but
				// no edge — invocation through the value is indirect.
				handleLit(x)
				return false
			}
			return true
		})
	}
	walk(body)
}

// implementations returns the keys of the loaded types' methods that a
// call of f may run when f is an interface method, and nil otherwise. The
// packages are type-checked one by one, each against the others' export
// data, so a type can appear as two objects: a method matches by name and
// by its signature's text.
func (g *Graph) implementations(f *types.Func) []string {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	key := funcKey(f)
	if impls, ok := g.impls[key]; ok {
		return impls
	}
	iface := sig.Recv().Type().Underlying().(*types.Interface)
	impls := []string{}
	for _, n := range g.types {
		ms := types.NewMethodSet(types.NewPointer(n))
		var found *types.Func
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			sel := ms.Lookup(m.Pkg(), m.Name())
			if sel == nil || types.TypeString(sel.Type(), nil) != types.TypeString(m.Type(), nil) {
				found = nil
				break
			}
			if m.Name() == f.Name() {
				found = sel.Obj().(*types.Func)
			}
		}
		if found != nil && !types.IsInterface(found.Type().(*types.Signature).Recv().Type()) {
			impls = append(impls, funcKey(found))
		}
	}
	g.impls[key] = impls
	return impls
}

// pkgPathOf returns the package path of a function's defining package, ""
// for builtins.
func pkgPathOf(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// reachableFrom runs a breadth-first walk over static call edges from key,
// invoking visit for every node reached, the origin included. visit
// returning false stops the walk. The walk order is deterministic (per-node
// edge order, FIFO).
func (g *Graph) reachableFrom(key string, visit func(*FuncNode) bool) {
	seen := map[string]bool{key: true}
	queue := []string{key}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		n := g.Funcs[k]
		if n == nil {
			continue
		}
		if !visit(n) {
			return
		}
		for _, cs := range n.Calls {
			if !seen[cs.Callee] {
				seen[cs.Callee] = true
				queue = append(queue, cs.Callee)
			}
		}
	}
}
