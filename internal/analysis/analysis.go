// Package analysis is GRIPhoN's domain-invariant static analysis suite: a
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the analyzers that
// machine-check the conventions the compiler cannot see.
//
// The controller's correctness rests on invariants that are purely
// conventional: all time flows through the internal/sim virtual clock, every
// reservation carries a rollback closure inside an inventory.Txn, every
// tracer span is ended on every path, hardware is only touched through the
// EMS layer, and instrument names follow one naming scheme. The paper's
// architecture (§2.2) is explicit that the controller "never talks to
// hardware directly" and that the resource database is the single source of
// truth — the analyzers in this package are those sentences as code.
//
// The x/tools module is deliberately not imported: the suite runs on the
// standard library alone (go/ast, go/types, go/parser) so it works in
// hermetic build environments. There is no lint command: this package's
// TestRepoIsClean runs every analyzer over every package of the module, so
// `go test ./...` lints. The driver subpackage loads and type-checks packages
// via `go list -export`; the analysistest subpackage runs fixture packages
// with `// want` expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker. It mirrors the x/tools
// go/analysis Analyzer surface that the suite needs: a name (used in
// diagnostics and //lint:allow suppressions) and a Run function invoked once
// per package. The invariant it checks is stated on its variable's doc
// comment.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	// It must be a valid identifier.
	Name string
	// Run performs the check and reports findings via pass.Report.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset maps token positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package. Its Path() is the normalized import
	// path (test variants report the path of the package under test).
	Pkg *types.Package
	// TypesInfo holds the type-checker's findings for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver fills it in; analyzers
	// should prefer Reportf.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The driver attaches
// the analyzer name when rendering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NormalizePkgPath maps the package paths go list reports for test variants
// onto the path of the package under test, so allow/deny lists written
// against "griphon/internal/sim" also cover "griphon/internal/sim
// [griphon/internal/sim.test]" and "griphon/internal/sim_test".
func NormalizePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	return path
}

// PathIsOrUnder reports whether the (normalized) package path is the given
// package or nested below it.
func PathIsOrUnder(path, root string) bool {
	path = NormalizePkgPath(path)
	return path == root || strings.HasPrefix(path, root+"/")
}

// funcFromUse resolves an identifier use to a *types.Func declared in the
// package with the given import path, or nil.
func funcFromUse(info *types.Info, id *ast.Ident, pkgPath string) *types.Func {
	obj := info.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	return fn
}

// calleeFunc resolves the called function of a call expression, seeing
// through parentheses and generic instantiation (F[T](...)).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// methodOn reports whether fn is a method named name whose receiver's named
// type is typeName declared in package pkgPath (pointer or value receiver).
func methodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// namedType unwraps pointers and aliases to the named type underneath.
func namedType(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// isNil reports whether the expression is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj || (id.Name == "nil" && info.Uses[id] == nil)
}

// inTestFile reports whether pos lies in a _test.go file.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
