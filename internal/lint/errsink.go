package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ErrSink flags discarded errors on the durability path. The journal's
// crash-recovery guarantee ("an acknowledged submission survives a crash")
// is only as strong as the weakest ignored fsync: an unchecked
// (*os.File).Sync or Close silently downgrades durable to probably-durable.
//
// Scope is deliberately narrow to stay high-signal — only calls whose lost
// error voids a durability or integrity guarantee:
//
//   - (*os.File).Sync and (*os.File).Close, and the same two methods of
//     journal.File, the journal's file layer
//   - (*journal.Journal).Append, Write, Sync and Close
//   - journal.DecodeRecord and journal.ScanSegment (checksum verifiers:
//     ignoring their error means accepting a corrupt record)
//
// A call is flagged when its error is discarded structurally: used as a
// bare statement, or deferred (defer discards return values). Assigning the
// error — including explicitly to the blank identifier, `_ = f.Close()` —
// is the sanctioned way to record that a discard is deliberate.
//
// Run-time tests, the crash-point enumeration (internal/service/crash_test.go)
// first among them, fail on every other mutant of EXPERIMENTS.md's table;
// errsink stays for the one none can see: Journal.Close dropping its
// segment's Close error. The segment was fsynced first, so no crash image
// loses a byte, but a file system that reports a failed write-back only at
// close would go unheard.
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc:  "errors from durability-path calls (fsync, close, journal append, checksum decode) must not be discarded",
}

const journalPkg = "ftdag/internal/journal"

// durabilityCall classifies a call on the durability path, returning a
// human-readable description or "".
func durabilityCall(info *types.Info, call *ast.CallExpr) string {
	switch {
	case isMethodOn(info, call, "os", "File", "Sync"):
		return "(*os.File).Sync"
	case isMethodOn(info, call, "os", "File", "Close"):
		return "(*os.File).Close"
	case isMethodOn(info, call, journalPkg, "File", "Sync"):
		return "(journal.File).Sync"
	case isMethodOn(info, call, journalPkg, "File", "Close"):
		return "(journal.File).Close"
	case isMethodOn(info, call, journalPkg, "Journal", "Append"):
		return "(*journal.Journal).Append"
	case isMethodOn(info, call, journalPkg, "Journal", "Write"):
		return "(*journal.Journal).Write"
	case isMethodOn(info, call, journalPkg, "Journal", "Sync"):
		return "(*journal.Journal).Sync"
	case isMethodOn(info, call, journalPkg, "Journal", "Close"):
		return "(*journal.Journal).Close"
	case isPkgFunc(info, call, journalPkg, "DecodeRecord"):
		return "journal.DecodeRecord"
	case isPkgFunc(info, call, journalPkg, "ScanSegment"):
		return "journal.ScanSegment"
	}
	return ""
}

// errSink reports every durability-path call of pkg whose error is
// discarded.
func errSink(fset *token.FileSet, pkg *Package, report func(Diagnostic)) {
	reportf := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{Pos: fset.Position(pos), Analyzer: ErrSink.Name, Message: fmt.Sprintf(format, args...)})
	}
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if what := durabilityCall(info, call); what != "" {
						reportf(call.Pos(), "error from %s is discarded on the durability path; handle it or assign it to _ explicitly", what)
					}
				}
			case *ast.DeferStmt:
				if what := durabilityCall(info, s.Call); what != "" {
					reportf(s.Call.Pos(), "defer discards the error from %s; check it in a deferred closure or call it explicitly before returning", what)
				}
			}
			return true
		})
	}
}
