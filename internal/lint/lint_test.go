package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches golden expectations embedded in testdata sources:
//
//	// want:<analyzer>: <message substring>
//
// anchored to the line it appears on. An optional offset (want+1:) shifts
// the expected line, for findings whose line cannot carry a comment (e.g.
// a malformed //lint:ignore directive, which must stand alone).
var wantRe = regexp.MustCompile(`// want([+-]\d+)?:([a-z]+): (.+?)\s*$`)

type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

// loadExpectations scans every Go file in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1])
			}
			wants = append(wants, &expectation{
				file:     path,
				line:     i + 1 + offset,
				analyzer: m[2],
				substr:   m[3],
			})
		}
	}
	return wants
}

// TestGolden runs the full analyzer suite over each case package under
// testdata/src and matches the diagnostics, both directions, against the
// want comments: every expectation must be produced, and every produced
// diagnostic must be expected.
func TestGolden(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cases, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if !c.IsDir() {
			continue
		}
		t.Run(c.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.Name())
			ld := NewLoader(root)
			pkg, err := ld.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.LoadErrors) > 0 {
				t.Fatalf("case package failed to load: %v", pkg.LoadErrors)
			}
			diags := Check(ld.Fset, []*Package{pkg})
			wants := loadExpectations(t, dir)
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
						w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: missing expected [%s] finding containing %q",
						w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}

// TestModuleClean asserts the suite's own repository passes its own gate:
// ftlint over ./... must come back with zero findings. This is the same
// invocation `make lint` performs, so a regression fails here first.
func TestModuleClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root)
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range Check(ld.Fset, pkgs) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestAnalyzerMetadata keeps the suite's registry well-formed: unique
// non-empty names (they are the suppression keys) and one-line docs for
// ftlint -list.
func TestAnalyzerMetadata(t *testing.T) {
	if len(All) != 2 {
		t.Errorf("suite has %d analyzers, want 2 (errsink, ackorder)", len(All))
	}
	seen := make(map[string]bool)
	for _, a := range All {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.Contains(a.Doc, "\n") {
			t.Errorf("analyzer %s: doc must be one line", a.Name)
		}
	}
}
