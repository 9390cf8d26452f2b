package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that raised it, and a
// message. The String form is the CI-facing output format.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	pos := d.Pos.String()
	if pos == "-" || pos == "" {
		pos = "?"
	}
	return fmt.Sprintf("%s: [%s] %s", pos, d.Analyzer, d.Message)
}

// Facts carries cross-package knowledge gathered during the collect phase
// and consumed during the run phase. All analyzers of one Check call share
// one Facts value.
type Facts struct {
	// Deterministic records packages carrying a //lint:deterministic
	// directive: the determinism manifest for the detrand analyzer.
	Deterministic map[string]bool

	// Graph is the module-wide call graph built once per Check, for the
	// interprocedural ackorder analyzer.
	Graph *Graph

	// ackDiags caches ackorder's module-wide result: computed by its first
	// Run and replayed into every later pass for routing.
	ackDiags []pkgDiag
}

func newFacts() *Facts {
	return &Facts{Deterministic: make(map[string]bool)}
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Facts    *Facts

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// Analyzer is one static check. Collect (optional) gathers cross-package
// facts; the driver runs every Collect over every package before any Run.
type Analyzer struct {
	Name    string
	Doc     string
	Collect func(*Pass)
	Run     func(*Pass)
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{RawAtomic, LockScope, DetRand, ErrSink, AckOrder}

// Check runs the analyzers over the packages and returns the surviving
// findings sorted by position: load errors first-class, //lint:ignore
// suppressions applied, unused suppressions reported.
func Check(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var healthy []*Package
	for _, pkg := range pkgs {
		if len(pkg.LoadErrors) > 0 {
			diags = append(diags, pkg.LoadErrors...)
			continue
		}
		healthy = append(healthy, pkg)
	}

	facts := newFacts()
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range healthy {
			a.Collect(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, Facts: facts, report: func(Diagnostic) {}})
		}
	}

	var found []Diagnostic
	// The interprocedural foundation: one call graph per Check, for
	// ackorder. Malformed //lint:durable directives are findings of their
	// own, suppressible like any other.
	facts.Graph = buildGraph(fset, healthy, func(d Diagnostic) { found = append(found, d) })
	for _, a := range analyzers {
		for _, pkg := range healthy {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Facts: facts,
				report: func(d Diagnostic) { found = append(found, d) }}
			a.Run(pass)
		}
	}

	sup, supDiags := collectIgnores(fset, healthy)
	diags = append(diags, supDiags...)
	for _, d := range found {
		if !sup.suppresses(d) {
			diags = append(diags, d)
		}
	}
	diags = append(diags, sup.unused()...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
