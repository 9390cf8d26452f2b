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

// Analyzer names one static check: its Name labels its findings, its Doc is
// the one-line contract ftlint -list prints.
type Analyzer struct {
	Name string
	Doc  string
}

// All is the full analyzer suite.
var All = []*Analyzer{ErrSink}

// Check runs errsink over every package and returns the findings sorted by
// position, a package's load errors first-class among them.
func Check(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		if len(pkg.LoadErrors) > 0 {
			diags = append(diags, pkg.LoadErrors...)
			continue
		}
		errSink(fset, pkg, report)
	}
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
