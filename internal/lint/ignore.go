package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

type ignoreSet struct {
	directives []*ignoreDirective
}

// parseDirective splits a //lint:<word> <arg> comment into its word and
// its trimmed argument; ok is false for every other comment.
func parseDirective(c *ast.Comment) (word, arg string, ok bool) {
	text, ok := strings.CutPrefix(c.Text, "//lint:")
	if !ok {
		return "", "", false
	}
	word, arg, _ = strings.Cut(text, " ")
	return word, strings.TrimSpace(arg), true
}

// collectIgnores scans every comment of every healthy package for lint
// directives. Malformed //lint:ignore comments (missing analyzer name or
// missing reason) are reported immediately: a suppression without a
// written-down reason is exactly the silent invariant-voiding this suite
// exists to prevent. So is a directive whose word no analyzer reads — only
// ignore and durable (callgraph.go) have a reader — so a directive cannot
// outlive the analyzer that read it.
func collectIgnores(fset *token.FileSet, pkgs []*Package) (*ignoreSet, []Diagnostic) {
	set := &ignoreSet{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					word, arg, ok := parseDirective(c)
					if !ok || word == "durable" {
						continue
					}
					pos := fset.Position(c.Pos())
					if word != "ignore" {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "ignore",
							Message:  "unknown directive //lint:" + word + " (only ignore and durable have a reader; delete it)",
						})
						continue
					}
					fields := strings.Fields(arg)
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "ignore",
							Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
						})
						continue
					}
					set.directives = append(set.directives, &ignoreDirective{pos: pos, analyzer: fields[0]})
				}
			}
		}
	}
	return set, diags
}

// suppresses reports whether some directive covers d: same file, matching
// analyzer, and the directive sits on the finding's line (trailing comment)
// or on the line directly above it.
func (s *ignoreSet) suppresses(d Diagnostic) bool {
	hit := false
	for _, dir := range s.directives {
		if dir.analyzer != d.Analyzer || dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used = true
			hit = true // keep scanning so stacked directives all count as used
		}
	}
	return hit
}

// unused reports every directive that suppressed nothing — stale
// suppressions are findings so they cannot outlive the code they excused.
func (s *ignoreSet) unused() []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.directives {
		if !dir.used {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "ignore",
				Message:  "unused //lint:ignore " + dir.analyzer + " suppression (the finding it excused is gone; delete it)",
			})
		}
	}
	return out
}
