package lint

import (
	"fmt"
	"go/token"
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

// Analyzer names one static check: its Name is the key a //lint:ignore
// names, its Doc the one-line contract ftlint -list prints.
type Analyzer struct {
	Name string
	Doc  string
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{ErrSink, AckOrder}

// Check runs errsink over every package and ackorder once over their call
// graph, and returns the surviving findings sorted by position: load errors
// first-class, //lint:ignore suppressions applied, unused suppressions and
// unknown directives reported.
func Check(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	var healthy []*Package
	for _, pkg := range pkgs {
		if len(pkg.LoadErrors) > 0 {
			diags = append(diags, pkg.LoadErrors...)
			continue
		}
		healthy = append(healthy, pkg)
	}

	var found []Diagnostic
	report := func(d Diagnostic) { found = append(found, d) }
	for _, pkg := range healthy {
		errSink(fset, pkg, report)
	}
	// Malformed //lint:durable directives are findings of their own,
	// suppressible like any other.
	found = append(found, computeAckOrder(fset, buildGraph(fset, healthy, report))...)

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
