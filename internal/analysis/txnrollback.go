package analysis

import (
	"go/ast"
	"go/types"
)

const (
	inventoryPkg = "griphon/internal/inventory"
	corePkg      = "griphon/internal/core"
)

// Txnrollback enforces the reservation discipline from DESIGN.md §5 / paper
// §2.2: the resource database is only mutated through reversible steps. A
// connection setup reserves transponders, regen chains, wavelengths, FXC
// ports and ODU slots; any step can fail, and everything already taken must
// come back. Concretely: inventory.Reserve must be given a live transaction
// (not a nil *Txn) and a non-nil release closure — a Reserve with no release
// is a leak the moment any later step fails. That a claim made through the
// transaction cannot reach an error return with it still open is leakpath's
// check.
var Txnrollback = &Analyzer{
	Name: "txnrollback",
	Run:  runTxnrollback,
}

func runTxnrollback(pass *Pass) error {
	if NormalizePkgPath(pass.Pkg.Path()) == inventoryPkg {
		// The transaction mechanics themselves (and their tests) exercise
		// nil undos on purpose.
		return nil
	}
	for _, f := range pass.Files {
		checkReserveCalls(pass, f)
	}
	return nil
}

// checkReserveCalls validates every inventory.Reserve call site.
func checkReserveCalls(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "Reserve" ||
			fn.Pkg() == nil || fn.Pkg().Path() != inventoryPkg {
			return true
		}
		// Reserve[T](txn, alloc, release): a method named Reserve on some
		// other type (spectrum pools, ledgers) is not this invariant.
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true
		}
		if len(call.Args) != 3 {
			return true
		}
		if isNil(pass.TypesInfo, call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(),
				"inventory.Reserve with a nil Txn: reservations must run inside "+
					"a live transaction so they can be rolled back")
		}
		if isNil(pass.TypesInfo, call.Args[2]) {
			pass.Reportf(call.Args[2].Pos(),
				"inventory.Reserve with a nil release closure: every reservation "+
					"must register its rollback")
		}
		return true
	})
}

// errNilCond reports whether cond is `<errish> != nil`.
func errNilCond(info *types.Info, cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "!=" {
		return false
	}
	var val ast.Expr
	switch {
	case isNil(info, bin.Y):
		val = bin.X
	case isNil(info, bin.X):
		val = bin.Y
	default:
		return false
	}
	t := info.Types[ast.Unparen(val)].Type
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface()) || t.String() == "error"
}

var errIface *types.Interface

func errorInterface() *types.Interface {
	if errIface == nil {
		errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errIface
}
