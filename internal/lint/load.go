// Package lint is the repository's static-analysis suite: a stdlib-only
// loader (go/ast, go/parser, go/types, package metadata via `go list`) and
// one analyzer, errsink (no discarded fsync, close, journal or checksum
// error on the durability path). cmd/ftlint is the CLI; `make lint` wires it
// into the CI gate.
//
// The loader type-checks every package of the module from source against
// compiled export data of its dependencies (so a whole-module run stays
// well under the CI time budget); Check runs errsink over each package and
// reports findings as "file:line:col: [analyzer] message". A deliberate
// discard is written `_ = f.Close()`.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// maxTypeErrors bounds how many type errors are reported per package before
// the rest are elided; a broken package usually cascades.
const maxTypeErrors = 10

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path (or directory name for LoadDir packages)
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// LoadErrors holds parse and type errors. A package with load errors
	// is reported as-is and skipped by the analyzers: partial type
	// information would make their findings unreliable.
	LoadErrors []Diagnostic
}

// Loader loads packages for analysis. One Loader may load many packages;
// dependency export data and the `go list` results are cached across calls.
type Loader struct {
	// ModuleDir is the directory holding go.mod; `go list` runs there.
	ModuleDir string
	// Fset positions every loaded file.
	Fset *token.FileSet

	exports map[string]string // import path -> export data file
	imp     types.ImporterFrom
}

// NewLoader returns a Loader rooted at the module directory.
func NewLoader(moduleDir string) *Loader {
	ld := &Loader{
		ModuleDir: moduleDir,
		Fset:      token.NewFileSet(),
		exports:   make(map[string]string),
	}
	ld.imp = importer.ForCompiler(ld.Fset, "gc", ld.lookup).(types.ImporterFrom)
	return ld
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// listMeta is the subset of `go list -json` output the loader consumes.
type listMeta struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct {
		Pos string
		Err string
	}
}

// goList runs `go list -export -json` with the given arguments and decodes
// the JSON stream, caching every package's export data location.
func (ld *Loader) goList(args ...string) ([]*listMeta, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json"}, args...)...)
	cmd.Dir = ld.ModuleDir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, errBuf.String())
	}
	dec := json.NewDecoder(&out)
	var metas []*listMeta
	for {
		m := new(listMeta)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if m.Export != "" {
			ld.exports[m.ImportPath] = m.Export
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// lookup feeds dependency export data to the gc importer, shelling out to
// `go list` lazily for packages not covered by a previous call (e.g. a
// testdata package importing a stdlib package the module itself does not).
func (ld *Loader) lookup(path string) (io.ReadCloser, error) {
	exp, ok := ld.exports[path]
	if !ok {
		if _, err := ld.goList("-deps", "--", path); err != nil {
			return nil, err
		}
		exp = ld.exports[path]
	}
	if exp == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(exp)
}

// Load loads the packages matched by the patterns (typically "./...") and
// type-checks each from source. Dependencies are resolved from compiled
// export data, so sibling packages need not be re-checked transitively.
func (ld *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := ld.goList(append([]string{"-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, m := range metas {
		if m.DepOnly || m.Standard {
			continue
		}
		pkgs = append(pkgs, ld.loadMeta(m))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadMeta parses and type-checks one `go list` package.
func (ld *Loader) loadMeta(m *listMeta) *Package {
	pkg := &Package{Path: m.ImportPath, Name: m.Name, Dir: m.Dir}
	if m.Error != nil && len(m.GoFiles) == 0 {
		pkg.LoadErrors = append(pkg.LoadErrors, Diagnostic{
			Pos:      token.Position{Filename: m.Dir},
			Analyzer: "load",
			Message:  strings.TrimSpace(m.Error.Err),
		})
		return pkg
	}
	var paths []string
	for _, f := range m.GoFiles {
		paths = append(paths, filepath.Join(m.Dir, f))
	}
	ld.check(pkg, paths)
	return pkg
}

// LoadDir loads a single directory as one package, ignoring build metadata.
// Used by the golden-file tests to load cases under testdata (which `go
// list ./...` deliberately skips) and by hostile-input tests: a package
// that fails to parse or type-check comes back with LoadErrors populated
// rather than an error or a panic.
func (ld *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(paths)
	pkg := &Package{Path: filepath.Base(dir), Dir: dir}
	ld.check(pkg, paths)
	return pkg, nil
}

// check parses the files and type-checks them into pkg, collecting parse
// and type errors as LoadErrors instead of failing.
func (ld *Loader) check(pkg *Package, paths []string) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(ld.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.LoadErrors = append(pkg.LoadErrors, parseErrDiags(err)...)
			continue
		}
		files = append(files, f)
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
	}
	pkg.Files = files
	if len(files) == 0 {
		return
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	nerrs := 0
	conf := types.Config{
		Importer: ld.imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			nerrs++
			if nerrs > maxTypeErrors {
				return
			}
			if te, ok := err.(types.Error); ok {
				pkg.LoadErrors = append(pkg.LoadErrors, Diagnostic{
					Pos:      te.Fset.Position(te.Pos),
					Analyzer: "load",
					Message:  te.Msg,
				})
				return
			}
			pkg.LoadErrors = append(pkg.LoadErrors, Diagnostic{Analyzer: "load", Message: err.Error()})
		},
	}
	tpkg, err := conf.Check(pkg.Path, ld.Fset, files, info)
	if err != nil && len(pkg.LoadErrors) == 0 {
		// Importer failures and other non-type errors bypass Config.Error.
		pkg.LoadErrors = append(pkg.LoadErrors, Diagnostic{
			Pos:      token.Position{Filename: pkg.Dir},
			Analyzer: "load",
			Message:  err.Error(),
		})
	}
	pkg.Types = tpkg
	pkg.Info = info
}

// parseErrDiags converts a parser error (possibly a scanner.ErrorList) into
// load diagnostics, one per underlying error, capped like type errors.
func parseErrDiags(err error) []Diagnostic {
	if list, ok := err.(scanner.ErrorList); ok {
		var out []Diagnostic
		for i, e := range list {
			if i == maxTypeErrors {
				break
			}
			out = append(out, Diagnostic{Pos: e.Pos, Analyzer: "load", Message: e.Msg})
		}
		return out
	}
	return []Diagnostic{{Analyzer: "load", Message: err.Error()}}
}
