package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// AckOrder proves the fsync-before-ack protocol: every call to a function
// annotated `//lint:durable ack` (an acknowledgement the outside world can
// observe — returning a submit handle, closing a job's done channel) must be
// dominated on every control-flow path by a durability barrier — a call to a
// function annotated `//lint:durable fsync`, or to one the analysis proves
// always reaches such a barrier before returning. This turns the journal's
// "a job is never acked before its Submitted record is fsynced" and the
// service's "terminal record before done closes" invariants from comments
// into machine-checked properties.
//
// The analysis is a per-function must-dataflow ("has a barrier definitely
// executed by this point?") joined at branch merges (both arms must have
// synced), discarding loop-body facts (a loop may run zero times), made
// interprocedural by two summaries computed to fixpoint over the call graph:
// a function every one of whose exits is barrier-dominated is itself a
// barrier to its callers, and a function containing an ack call it does not
// locally dominate exposes that obligation to its callers — the check moves
// one frame up, so "helper acks, caller fsyncs" layouts are proven, not
// rejected. An obligation that survives to a function nothing in the module
// calls is reported at the call of the annotated ack it started from.
//
// Directive sanity is checked too: a `//lint:durable fsync` function whose
// expanded call graph can never reach an (*os.File).Sync or another fsync
// function is a lie and is reported; so are malformed or floating
// //lint:durable comments (see callgraph.go).
var AckOrder = &Analyzer{
	Name: "ackorder",
	Doc:  "calls to //lint:durable ack functions must be dominated by a //lint:durable fsync barrier on every path",
}

// ackObligation is one ack-class call not dominated by a barrier inside its
// enclosing function. origin stays pinned to the direct call of the
// annotated ack as the obligation climbs the call graph — that is where the
// diagnostic lands (so a reasoned //lint:ignore sits next to the ack, not at
// some distant root).
type ackObligation struct {
	origin  token.Pos // the direct call to the annotated ack
	ackName string    // name of the annotated ack
}

// ackSummary is the durability behavior of one function.
type ackSummary struct {
	barrier     bool // annotated fsync, or every exit barrier-dominated
	obligations []ackObligation
}

// computeAckOrder runs the whole proof over the module's call graph and
// returns its findings.
func computeAckOrder(fset *token.FileSet, g *Graph) []Diagnostic {
	var out []Diagnostic

	// Directive sanity: an fsync function must be able to reach a real
	// fsync, through an interface call's implementations too.
	// (Reachability, not path-sensitivity.)
	g.Nodes(func(n *FuncNode) {
		if n.Durable != "fsync" {
			return
		}
		reaches := false
		g.reachableFrom(n.Key, func(m *FuncNode) bool {
			if m.CallsFileSync || (m != n && m.Durable == "fsync") {
				reaches = true
				return false
			}
			return true
		})
		if !reaches {
			out = append(out, Diagnostic{
				Pos:      fset.Position(n.DurablePos),
				Analyzer: "ackorder",
				Message:  fmt.Sprintf("//lint:durable fsync on %s is unverifiable: no (*os.File).Sync or fsync-annotated call is reachable from it", n.Name),
			})
		}
	})

	// Summary fixpoint. Both summary facts grow monotonically (barriers
	// only get added, obligations only propagate further up), so iterate
	// until stable.
	sums := make(map[string]*ackSummary)
	g.Nodes(func(n *FuncNode) {
		sums[n.Key] = &ackSummary{barrier: n.Durable == "fsync"}
	})
	for changed := true; changed; {
		changed = false
		g.Nodes(func(n *FuncNode) {
			if n.Durable != "" {
				return // annotated functions are axioms, not re-derived
			}
			s := analyzeAck(fset, g, sums, n)
			old := sums[n.Key]
			if s.barrier != old.barrier || len(s.obligations) != len(old.obligations) {
				changed = true
			}
			sums[n.Key] = s
		})
	}

	// Report obligations that surfaced in functions the module never calls
	// statically: nothing above them can discharge the proof. The diagnostic
	// anchors at the original ack call (dedup'd across roots) so a written
	// suppression can sit right next to the ack it excuses.
	reported := make(map[string]bool)
	g.Nodes(func(n *FuncNode) {
		if g.HasCallers(n.Key) {
			return
		}
		for _, ob := range sums[n.Key].obligations {
			rk := fmt.Sprintf("%d:%s", ob.origin, ob.ackName)
			if reported[rk] {
				continue
			}
			reported[rk] = true
			out = append(out, Diagnostic{
				Pos:      fset.Position(ob.origin),
				Analyzer: "ackorder",
				Message:  fmt.Sprintf("ack %q is not dominated by a durable fsync on every path to it", ob.ackName),
			})
		}
	})
	return out
}

// analyzeAck runs the must-sync walk over one function body.
func analyzeAck(fset *token.FileSet, g *Graph, sums map[string]*ackSummary, n *FuncNode) *ackSummary {
	w := &ackWalk{fset: fset, g: g, sums: sums, node: n, sum: &ackSummary{}}
	st, terminated := w.stmts(n.Body().List, ackState{})
	// The implicit fall-off-the-end return counts as an exit.
	if !terminated {
		w.exits = append(w.exits, st.synced)
	}
	w.sum.barrier = len(w.exits) > 0
	for _, synced := range w.exits {
		if !synced {
			w.sum.barrier = false
		}
	}
	return w.sum
}

// ackState is the dataflow fact: has a barrier definitely executed?
type ackState struct {
	synced bool
}

// join is the must-merge of two reachable states.
func (a ackState) join(b ackState) ackState {
	return ackState{synced: a.synced && b.synced}
}

type ackWalk struct {
	fset  *token.FileSet
	g     *Graph
	sums  map[string]*ackSummary
	node  *FuncNode
	sum   *ackSummary
	exits []bool // synced-ness at each return (and fall-off end)
}

// call processes one resolvable call site against the current state. A call
// of an interface method runs one of its implementations: it is a barrier
// only if each of them is, and the obligations of each climb.
func (w *ackWalk) call(key string, pos token.Pos, st *ackState) {
	keys, ok := w.g.impls[key]
	if !ok {
		keys = []string{key}
	}
	barrier := len(keys) > 0
	for _, k := range keys {
		barrier = w.callee(k, pos, st.synced) && barrier
	}
	if barrier {
		st.synced = true
	}
}

// callee judges a call of key in state synced and reports whether the
// callee is a barrier.
func (w *ackWalk) callee(key string, pos token.Pos, synced bool) bool {
	target := w.g.Funcs[key]
	if target == nil {
		return false
	}
	s := w.sums[key]
	// Ack check first: a function that both acks and syncs (ack annotated
	// functions are never also barriers) cannot excuse its own ack.
	if target.Durable == "ack" && !synced {
		w.addObligation(ackObligation{origin: pos, ackName: target.Name})
		return false
	}
	if s != nil && len(s.obligations) > 0 && !synced && target.Durable == "" {
		// The callee exposes an undominated ack; unsynced here, the
		// obligation climbs to this function's own summary.
		for _, ob := range s.obligations {
			w.addObligation(ob)
		}
	}
	return target.Durable == "fsync" || (s != nil && s.barrier)
}

// addObligation records an obligation, dedup'd by its origin — without the
// dedup, obligations amplify through call-graph cycles and the summary
// fixpoint never converges.
func (w *ackWalk) addObligation(ob ackObligation) {
	for _, have := range w.sum.obligations {
		if have.origin == ob.origin && have.ackName == ob.ackName {
			return
		}
	}
	w.sum.obligations = append(w.sum.obligations, ob)
}

// exprCalls processes every resolvable call inside an expression in source
// order, skipping function literal bodies.
func (w *ackWalk) exprCalls(e ast.Expr, st *ackState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if f := calleeFunc(w.node.Pkg.Info, x); f != nil {
				w.call(funcKey(f), x.Pos(), st)
			} else if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: its node key is positional.
				w.call(fmt.Sprintf("%s·lit@%d", w.node.Key, fl.Pos()), x.Pos(), st)
			}
		}
		return true
	})
}

// stmts walks a statement list, returning the exit state and whether every
// path through the list terminates (returns/panics).
func (w *ackWalk) stmts(list []ast.Stmt, st ackState) (ackState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *ackWalk) stmt(s ast.Stmt, st ackState) (ackState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && w.node.Pkg.Info.Uses[id] == nil {
				w.exprCalls(s.X, &st)
				return st, true
			}
		}
		w.exprCalls(s.X, &st)
		return st, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprCalls(e, &st)
		}
		w.exits = append(w.exits, st.synced)
		return st, true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprCalls(e, &st)
		}
		for _, e := range s.Lhs {
			w.exprCalls(e, &st)
		}
		return st, false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.exprCalls(s.Cond, &st)
		thenSt, thenTerm := w.stmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return thenSt.join(elseSt), false
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.exprCalls(s.Cond, &st)
		}
		w.stmts(s.Body.List, st) // obligations inside count; facts do not escape
		if s.Post != nil {
			w.stmt(s.Post, st)
		}
		return st, false
	case *ast.RangeStmt:
		w.exprCalls(s.X, &st)
		w.stmts(s.Body.List, st)
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.exprCalls(s.Tag, &st)
		}
		return w.branches(st, caseBodies(s.Body), hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		return w.branches(st, caseBodies(s.Body), hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				body := cc.Body
				if cc.Comm != nil {
					body = append([]ast.Stmt{cc.Comm}, body...)
				}
				bodies = append(bodies, body)
			}
		}
		// A select always takes exactly one of its cases.
		return w.branches(st, bodies, true)
	case *ast.GoStmt:
		// The launch site is a call edge for domination purposes: a barrier
		// before the go statement happens-before the goroutine's start.
		if f := calleeFunc(w.node.Pkg.Info, s.Call); f != nil {
			w.goCall(funcKey(f), s.Pos(), st)
		} else if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.goCall(fmt.Sprintf("%s·lit@%d", w.node.Key, fl.Pos()), s.Pos(), st)
		}
		for _, a := range s.Call.Args {
			w.exprCalls(a, &st)
		}
		return st, false
	case *ast.DeferStmt:
		// Deferred calls run at return, after everything else: they cannot
		// dominate a later ack, and a deferred ack is judged at the defer
		// with the current state (under-approximate but stable).
		if f := calleeFunc(w.node.Pkg.Info, s.Call); f != nil {
			stCopy := st
			w.call(funcKey(f), s.Pos(), &stCopy)
		}
		for _, a := range s.Call.Args {
			w.exprCalls(a, &st)
		}
		return st, false
	case *ast.SendStmt:
		w.exprCalls(s.Chan, &st)
		w.exprCalls(s.Value, &st)
		return st, false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IncDecStmt:
		w.exprCalls(s.X, &st)
		return st, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprCalls(v, &st)
					}
				}
			}
		}
		return st, false
	}
	return st, false
}

// goCall treats a goroutine launch of an ack-class function like a call for
// the domination check, without inheriting barrier effects back (the
// launcher does not wait).
func (w *ackWalk) goCall(key string, pos token.Pos, st ackState) {
	stCopy := st
	w.call(key, pos, &stCopy)
}

// branches must-joins a set of alternative bodies; exhaustive reports
// whether one of them always runs.
func (w *ackWalk) branches(st ackState, bodies [][]ast.Stmt, exhaustive bool) (ackState, bool) {
	if len(bodies) == 0 {
		return st, false
	}
	joined := ackState{synced: true}
	allTerm := true
	anyLive := false
	for _, b := range bodies {
		bst, term := w.stmts(b, st)
		if !term {
			joined = joined.join(bst)
			anyLive = true
		}
		allTerm = allTerm && term
	}
	if !exhaustive {
		joined = joined.join(st) // the skip-every-case path
		allTerm = false
		anyLive = true
	}
	if allTerm {
		return st, true
	}
	if !anyLive {
		return st, false
	}
	return joined, false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
