package lint

import (
	"go/ast"
	"go/types"
)

// RawAtomic rejects calls of sync/atomic's functions — atomic.AddInt64(&x.n,
// 1) and the rest. A field of one of the typed atomics (atomic.Int64,
// atomic.Uint32, ...) has no plain access at all, and its 64-bit types are
// 8-byte aligned on every platform since Go 1.19, 386 included. A plain field
// handed to a function has neither guarantee: one plain load beside the call
// is a race that voids the CAS protocols the executors rest on, and a 64-bit
// operand at offset 4 faults on a 32-bit build.
var RawAtomic = &Analyzer{
	Name: "rawatomic",
	Doc:  "no sync/atomic function calls; use the typed API (atomic.Int64, atomic.Uint32, ...)",
	Run:  rawAtomicRun,
}

func rawAtomicRun(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Pkg.Info, call)
			if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil {
				pass.Reportf(call.Pos(), "atomic.%s on a plain operand; use the typed API (atomic.Int64, atomic.Uint32, ...)", f.Name())
			}
			return true
		})
	}
}
