package analysis

import (
	"go/ast"
	"go/types"
)

// Leakpath checks the path half of the reservation discipline: a function
// that creates an inventory.Txn and claims resources through it
// (Txn.Do, inventory.Reserve, or a helper handed the txn — interprocedural
// one level) must not be able to reach a `return` carrying a non-nil error
// while the transaction is still open. On such a path every reservation made
// so far is stranded: the caller sees a failure, the pool sees a claim, and
// nothing will ever release it. A function-wide `defer txn.Rollback()`
// (harmless after Commit, the repo's standard idiom) discharges every path
// at once; otherwise each error return downstream of a claim needs an
// explicit Rollback or Commit before it.
var Leakpath = &Analyzer{
	Name: "leakpath",
	Run:  runLeakpath,
}

func runLeakpath(pass *Pass) error {
	if NormalizePkgPath(pass.Pkg.Path()) != corePkg {
		return nil
	}
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, fb := range funcBodies(f) {
			leakpathFunc(pass, fb)
		}
	}
	return nil
}

func leakpathFunc(pass *Pass, fb funcBody) {
	info := pass.TypesInfo
	// Transactions created in this scope. A *Txn received as a parameter is
	// caller-owned: the creator's defer/rollback discipline covers it.
	var txns []types.Object
	ownStmts(fb.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Name() != "NewTxn" || fn.Pkg() == nil || fn.Pkg().Path() != inventoryPkg {
			return true
		}
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				txns = append(txns, obj)
			}
		}
		return true
	})
	if len(txns) == 0 {
		return
	}
	g := BuildCFG(fb.body)
	for _, txn := range txns {
		leakpathTxn(pass, fb, g, txn)
	}
}

func leakpathTxn(pass *Pass, fb funcBody, g *CFG, txn types.Object) {
	info := pass.TypesInfo
	// `defer txn.Rollback()` anywhere in the function discharges all paths:
	// rollback after commit is a no-op, so the idiom is uniformly safe.
	for _, d := range g.Defers {
		if isTxnSettle(info, d.Call, txn) {
			return
		}
	}
	settles := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && isTxnSettle(info, call, txn)
	}
	errReturn := func(ret *ast.ReturnStmt) bool {
		// Implicit fallthrough and plain returns do not surface a failure;
		// naked returns with named error results are treated as errors
		// (conservative=true) since the error variable may be live.
		return returnsNonNilError(info, ret, true)
	}
	// Every call that hands the txn to something — Txn.Do, Reserve(txn,..),
	// or a core helper — may register claims.
	ownStmts(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTxnSettle(info, call, txn) || !callUsesTxn(info, call, txn) {
			return true
		}
		if esc, ret := g.EscapesExit(call, settles, errReturn); esc {
			line := 0
			if ret != nil {
				line = pass.Fset.Position(ret.Pos()).Line
			}
			pass.Reportf(call.Pos(),
				"claim on %s can reach the error return on line %d with the "+
					"transaction still open: reservations made so far leak; add "+
					"`defer %s.Rollback()` after NewTxn or settle the txn on that path",
				txn.Name(), line, txn.Name())
			return false // one report per claim site
		}
		return true
	})
}

// isTxnSettle matches txn.Rollback() / txn.Commit() on this transaction.
func isTxnSettle(info *types.Info, call *ast.CallExpr, txn types.Object) bool {
	fn := calleeFunc(info, call)
	if !methodOn(fn, inventoryPkg, "Txn", "Rollback") && !methodOn(fn, inventoryPkg, "Txn", "Commit") {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == txn
}

// callUsesTxn reports whether the call's receiver or arguments mention the
// transaction — claiming through it or handing it to a helper.
func callUsesTxn(info *types.Info, call *ast.CallExpr, txn types.Object) bool {
	uses := false
	ast.Inspect(call, func(n ast.Node) bool {
		if uses {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later; passing one is not a claim
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == txn {
			uses = true
		}
		return true
	})
	return uses
}
