package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileTypeError feeds the driver a package that does not
// type-check: it must come back as LoadErrors and flow through Check as
// ordinary [load] diagnostics — no panic, no analyzer running on the
// partial type information.
func TestHostileTypeError(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.LoadErrors) == 0 {
		t.Fatal("broken package loaded without errors")
	}
	diags := Check(ld.Fset, []*Package{pkg})
	if len(diags) == 0 {
		t.Fatal("load errors did not surface as diagnostics")
	}
	for _, d := range diags {
		if d.Analyzer != "load" {
			t.Errorf("analyzer %s ran on a broken package: %s", d.Analyzer, d)
		}
		if d.Pos.Filename == "" {
			t.Errorf("load diagnostic without a position: %s", d)
		}
	}
	// The cause must be named, not just "load failed".
	var all []string
	for _, d := range diags {
		all = append(all, d.Message)
	}
	joined := strings.Join(all, "\n")
	if !strings.Contains(joined, "cannot use") && !strings.Contains(joined, "undefined") {
		t.Errorf("type errors not reported verbatim; got:\n%s", joined)
	}
}

// TestHostileParseError feeds the driver a file with a syntax error.
func TestHostileParseError(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "badsyntax"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.LoadErrors) == 0 {
		t.Fatal("unparsable package loaded without errors")
	}
	for _, d := range Check(ld.Fset, []*Package{pkg}) {
		if d.Analyzer != "load" {
			t.Errorf("analyzer %s ran on an unparsable package: %s", d.Analyzer, d)
		}
	}
}

// TestFindModuleRoot walks up from a nested directory.
func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(root, "repo") && root == "" {
		t.Errorf("unexpected module root %q", root)
	}
	if _, err := FindModuleRoot("/"); err == nil {
		t.Error("expected an error above any module")
	}
}
