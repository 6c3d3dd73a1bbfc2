package analysis

import (
	"go/ast"
	"go/types"
)

// Spanpair enforces the tracer contract: a span obtained from
// (*obs.Tracer).Start or StartTrack must be ended — End, EndErr or
// EndOutcome — on every path out of the function that started it. An open
// span is not just a cosmetic leak: TestTraceTimeline proves restoration
// phases tile op:restore exactly, and the Chrome-trace exporter reports open
// spans as "open" slices stretching to the end of the run, which corrupts
// the per-step latency ladder the paper's Table 2 is reproduced from.
//
// Ending the span is someone else's duty, and the function is not checked
// further, when:
//
//   - a defer ends it (directly or via a deferred closure);
//   - it is captured by a function literal that ends it (the async pattern:
//     job.OnDone(func(err error) { sp.EndErr(err) }));
//   - it escapes the function — returned, stored in a field or composite
//     literal, reassigned, or handed to another function.
//
// Otherwise no path through the function's CFG may run from the Start to a
// function exit (a return, or falling off the end) without passing an End
// call on that span.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Run:  runSpanpair,
}

var spanEndMethods = map[string]bool{
	"End":        true,
	"EndErr":     true,
	"EndOutcome": true,
}

func runSpanpair(pass *Pass) error {
	if PathIsOrUnder(pass.Pkg.Path(), obsPkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			checkSpanFunc(pass, fb.body)
		}
	}
	return nil
}

// spanDecl is one `sp := tracer.Start(...)` site in the function under check.
type spanDecl struct {
	obj   types.Object
	ident *ast.Ident
	stmt  *ast.AssignStmt
}

func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	decls := spanDecls(pass, body)
	if len(decls) == 0 {
		return
	}
	parents := buildParents(body)
	g := BuildCFG(body)
	for _, d := range decls {
		checkSpanDecl(pass, body, parents, g, d)
	}
}

// spanDecls finds span declarations directly in this function; nested
// function literals are checked on their own visit.
func spanDecls(pass *Pass, body *ast.BlockStmt) []spanDecl {
	var out []spanDecl
	ownStmts(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if !methodOn(fn, obsPkg, "Tracer", "Start") &&
			!methodOn(fn, obsPkg, "Tracer", "StartTrack") {
			return true
		}
		if obj := objOf(pass.TypesInfo, id); obj != nil {
			out = append(out, spanDecl{obj: obj, ident: id, stmt: as})
		}
		return true
	})
	return out
}

// checkSpanDecl reports one span variable if the function keeps the duty to
// end it and some path from its Start reaches an exit without doing so.
func checkSpanDecl(pass *Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, g *CFG, d spanDecl) {
	info := pass.TypesInfo
	for _, df := range g.Defers {
		if isSpanEnd(info, df.Call, d.obj) {
			return
		}
	}
	handedOff := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == d.obj && spanHandedOff(parents, id) {
			handedOff = true
		}
		return !handedOff
	})
	if handedOff {
		return
	}

	ends := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && isSpanEnd(info, call, d.obj)
	}
	anyExit := func(*ast.ReturnStmt) bool { return true }
	esc, ret := g.EscapesExit(d.stmt, ends, anyExit)
	if !esc {
		return
	}
	exit := "the end of the function"
	if ret != nil {
		exit = "the return at " + pass.Fset.Position(ret.Pos()).String()
	}
	start := "Start"
	if fn := calleeFunc(info, d.stmt.Rhs[0].(*ast.CallExpr)); fn != nil {
		start = fn.Name()
	}
	pass.Reportf(d.ident.Pos(),
		"span %s from Tracer.%s is not ended on every path: %s is reachable "+
			"with no End/EndErr/EndOutcome before it (defer the End, end it "+
			"in the completion callback, or end it on that path)",
		d.ident.Name, start, exit)
}

// isSpanEnd matches sp.End(...) / sp.EndErr(...) / sp.EndOutcome(...) on this
// span variable.
func isSpanEnd(info *types.Info, call *ast.CallExpr, span types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !spanEndMethods[sel.Sel.Name] {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == span
}

// spanHandedOff reports whether one identifier occurrence of the span
// variable moves the duty to end it out of the function's own control flow:
// a closure ends it, or the value escapes.
func spanHandedOff(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	// sp.End(...)? — the parent chain is Ident <- SelectorExpr <- CallExpr.
	if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.X == id {
		if call, ok := parents[sel].(*ast.CallExpr); ok && call.Fun == sel {
			// An End in a closure runs on the closure's schedule; a plain End
			// is a barrier on the CFG; sp.SetConn(...), sp.Active() are
			// neutral wherever they run.
			return spanEndMethods[sel.Sel.Name] && underFuncLit(parents, call)
		}
		// Selector not called (method value `sp.End` passed around): the
		// receiver escaped with it.
		return spanEndMethods[sel.Sel.Name]
	}
	if underFuncLit(parents, id) {
		// Captured by a closure that never ends it: the closure may stash
		// it anywhere — treat as escaped rather than guess.
		return true
	}
	// Walk outward to see where the value flows.
	for n := parents[id]; n != nil; n = parents[n] {
		switch p := n.(type) {
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			return true
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if containsNode(r, id) {
					return true
				}
			}
			return false
		case *ast.CallExpr:
			// An argument position (not the callee) hands the span to
			// another function — including tracer.Start(sp, ...) child
			// spans; conservatively the holder owns ending it.
			return !containsNode(p.Fun, id)
		case ast.Stmt:
			return false
		}
	}
	return false
}

// --- small tree utilities -------------------------------------------------

// buildParents records each node's parent within root.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// underFuncLit reports whether n is inside a function literal nested in the
// function under check.
func underFuncLit(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
