package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the exports of internal/... that only tests call, kept on
// purpose because tests of other packages share them.
var testSeams = map[string]string{
	"ftdag/internal/leakcheck.Main":         "the leak check the TestMain of every package that starts goroutines ends with",
	"ftdag/internal/graph.Chain":            "fixture graph of the core, fault, comparators, service and cluster tests",
	"ftdag/internal/graph.PaperExample":     "the paper's example graph, fixture of the core and comparators tests",
	"ftdag/internal/graph.Tree":             "fixture graph of the core and comparators tests",
	"ftdag/internal/graph.VersionChain":     "fixture graph of the core, fault and comparators tests",
	"ftdag/internal/block.PoisonFreed":      "use-after-free tripwire the core, harness and apps tests switch on",
	"(*ftdag/internal/lint.Loader).LoadDir": "loads the analyzers' golden testdata packages",
}

// TestExportsHaveCallers fails for an exported function or method in
// internal/... that no non-test file uses: not the root module (cmd/,
// examples/ and the facade included) and not the nested bench/ module. A
// method that makes its type satisfy an interface is called through the
// interface and counts as used; testSeams lists the rest that stay.
func TestExportsHaveCallers(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	type module struct {
		ld   *Loader
		pkgs []*Package
	}
	var mods []module
	used := make(map[string]bool)
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		ld := NewLoader(dir)
		pkgs, err := ld.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if len(p.LoadErrors) > 0 {
				t.Fatalf("%s: %v", p.Path, p.LoadErrors[0])
			}
			for _, obj := range p.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin().FullName()] = true
				}
			}
		}
		mods = append(mods, module{ld, pkgs})
	}

	var unused []*types.Func
	for _, p := range mods[0].pkgs {
		if !strings.HasPrefix(p.Path, "ftdag/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if !used[fn.FullName()] && testSeams[fn.FullName()] == "" {
					unused = append(unused, fn)
				}
			}
		}
	}
	for _, m := range mods {
		unused = dropInterfaceMethods(m.ld, m.pkgs, unused)
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].FullName() < unused[j].FullName() })
	for _, fn := range unused {
		t.Errorf("%s: %s has no caller outside tests: delete it, or move it to its package's export_test.go",
			mods[0].ld.Fset.Position(fn.Pos()), fn.FullName())
	}
	for name := range testSeams {
		switch {
		case !declared(mods[0].pkgs, name):
			t.Errorf("testSeams lists %s, which is not declared", name)
		case used[name]:
			t.Errorf("testSeams lists %s, which has a caller outside tests", name)
		}
	}
}

// dropInterfaceMethods returns fns without the methods that make their
// receiver type, or a pointer to it, implement an interface declaring a
// method of that name: an interface of the errors package's protocols, or one
// declared in a loaded package or in anything they import. A receiver is
// looked up in its package's imported view, which shares its type objects
// with every other package's, and in its source view, which alone holds the
// unexported types.
func dropInterfaceMethods(ld *Loader, pkgs []*Package, fns []*types.Func) []*types.Func {
	src := make(map[string]*types.Package)
	var views []*types.Package
	for _, p := range pkgs {
		src[p.Path] = p.Types
		if tp, err := ld.imp.Import(p.Path); err == nil {
			views = append(views, tp)
		} else {
			views = append(views, p.Types)
		}
	}
	shared := interfaces(views...)
	var keep []*types.Func
	for _, fn := range fns {
		path := fn.Pkg().Path()
		tp, err := ld.imp.Import(path)
		implements := err == nil && satisfiesInterface(fn, tp, shared)
		if own := src[path]; own != nil && !implements {
			implements = satisfiesInterface(fn, own, append(interfaces(own), shared...))
		}
		if !implements {
			keep = append(keep, fn)
		}
	}
	return keep
}

// errorsProtocols are the unnamed interfaces errors.Is, As and Unwrap assert.
var errorsProtocols = func() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(0, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(0, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		errT.Underlying().(*types.Interface),
		method("Unwrap", nil, errT),
		method("Unwrap", nil, types.NewSlice(errT)),
		method("Is", errT, types.Typ[types.Bool]),
		method("As", anyT, types.Typ[types.Bool]),
	}
}()

// interfaces lists the errors protocols and the non-empty interfaces
// declared at package scope in the packages and in everything they import.
func interfaces(pkgs ...*types.Package) []*types.Interface {
	ifaces := append([]*types.Interface(nil), errorsProtocols...)
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, tp := range pkgs {
		walk(tp)
	}
	return ifaces
}

// satisfiesInterface reports whether fn's receiver type, looked up in view,
// implements one of ifaces that declares a method named like fn. A generic
// receiver is instantiated with its own type parameters.
func satisfiesInterface(fn *types.Func, view *types.Package, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	tn, ok := view.Scope().Lookup(named.Obj().Name()).(*types.TypeName)
	if !ok {
		return false
	}
	t := tn.Type()
	if tparams := t.(*types.Named).TypeParams(); tparams.Len() > 0 {
		args := make([]types.Type, tparams.Len())
		for i := range args {
			args[i] = tparams.At(i)
		}
		inst, err := types.Instantiate(nil, t, args, false)
		if err != nil {
			return false
		}
		t = inst
	}
	for _, it := range ifaces {
		if hasMethod(it, fn.Name()) && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// declared reports whether a function or method with the full name is
// declared in one of the packages.
func declared(pkgs []*Package, name string) bool {
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if fn, ok := obj.(*types.Func); ok && fn.FullName() == name {
				return true
			}
		}
	}
	return false
}
