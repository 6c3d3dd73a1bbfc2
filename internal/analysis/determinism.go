package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Determinism is the replay-exactness analyzer. The WAL rehydrate check (DESIGN.md
// §10) demands that a journal replayed from byte zero reproduce the
// controller byte-for-byte, and the flight recorder diffs JSON dumps across
// runs — both break the moment Go's randomized map iteration order leaks
// into a serialized record or an API response. The rule: a `range` over a
// map whose body appends into a slice that then reaches an ordered sink — a
// return value, a json-tagged record field (stateRec, commitRec, slo.Dump,
// the API's wire types), an encoding/json call, or a call to one of the
// hand-written JSON appenders (internal/jsonenc's, and the API's response
// appenders) — must pass a sort (sort.*, slices.Sort*) on every path between
// the append and the sink. Loops that only count, sum or look up are
// order-insensitive and never flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, fb := range funcBodies(f) {
			determinismFunc(pass, fb)
		}
	}
	return nil
}

// mapTaint is one append that records map-iteration order: either into a
// local slice object (obj != nil) or into a field selector rendered as sel.
type mapTaint struct {
	obj  types.Object
	sel  string   // canonical selector text for field appends ("x.F")
	node ast.Node // the append (or closure call) inside the loop body
}

func determinismFunc(pass *Pass, fb funcBody) {
	info := pass.TypesInfo
	var ranges []*ast.RangeStmt
	ownStmts(fb.body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := info.Types[rs.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, rs)
				}
			}
		}
		return true
	})
	if len(ranges) == 0 {
		return
	}
	g := BuildCFG(fb.body)
	closures := localClosureAppends(info, fb.body)
	for _, rs := range ranges {
		for _, t := range appendTargets(info, rs.Body, closures) {
			determinismCheck(pass, fb, g, rs, t)
		}
	}
}

// ownStmts walks the body without descending into nested function literals
// (each literal is analyzed as its own funcBody).
func ownStmts(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	})
}

// localClosureAppends maps objects bound to function literals (`report :=
// func(...) {...}`) to the outer objects and field selectors their bodies
// append to. Calling such a closure from a map-range body taints those
// targets — the exact shape of a local report/add helper.
func localClosureAppends(info *types.Info, body *ast.BlockStmt) map[types.Object][]mapTaint {
	out := map[types.Object][]mapTaint{}
	ast.Inspect(body, func(n ast.Node) bool {
		var id *ast.Ident
		var lit *ast.FuncLit
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if l, ok := n.Rhs[0].(*ast.FuncLit); ok {
					id, _ = n.Lhs[0].(*ast.Ident)
					lit = l
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == 1 && len(n.Values) == 1 {
				if l, ok := n.Values[0].(*ast.FuncLit); ok {
					id = n.Names[0]
					lit = l
				}
			}
		}
		if id == nil || lit == nil {
			return true
		}
		obj := objOf(info, id)
		if obj == nil {
			return true
		}
		for _, t := range directAppends(info, lit.Body) {
			// Only appends to objects living outside the literal escape it.
			if t.obj != nil && insideNode(lit, t.obj) {
				continue
			}
			out[obj] = append(out[obj], t)
		}
		return true
	})
	return out
}

// insideNode reports whether obj is declared within n's source range.
func insideNode(n ast.Node, obj types.Object) bool {
	return n.Pos() <= obj.Pos() && obj.Pos() <= n.End()
}

// directAppends collects `v = append(v, ...)` and `x.F = append(x.F, ...)`
// sites in a statement tree, without descending into nested literals.
func directAppends(info *types.Info, body ast.Node) []mapTaint {
	var out []mapTaint
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) {
			return true
		}
		switch lhs := ast.Unparen(as.Lhs[0]).(type) {
		case *ast.Ident:
			if obj := objOf(info, lhs); obj != nil {
				out = append(out, mapTaint{obj: obj, node: as})
			}
		case *ast.SelectorExpr:
			out = append(out, mapTaint{sel: types.ExprString(lhs), node: as})
		}
		return true
	})
	return out
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// appendTargets collects the taints created inside one map-range body:
// direct appends plus appends performed by called local closures.
func appendTargets(info *types.Info, body *ast.BlockStmt, closures map[types.Object][]mapTaint) []mapTaint {
	taints := directAppends(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		for _, t := range closures[obj] {
			taints = append(taints, mapTaint{obj: t.obj, sel: t.sel, node: call})
		}
		return true
	})
	return taints
}

// determinismCheck reports the range statement if taint t reaches an ordered
// sink with some path lacking a sort between the append and the sink.
func determinismCheck(pass *Pass, fb funcBody, g *CFG, rs *ast.RangeStmt, t mapTaint) {
	info := pass.TypesInfo
	barrier := func(n ast.Node) bool { return sortsTaint(info, n, t) }
	for _, sink := range taintSinks(pass, fb, t) {
		if nodeContains(rs, sink.node) && sink.kind != "return" {
			// The sink is the append itself (field append into a record
			// inside the loop): order is already baked in unless a sort
			// runs before the record escapes the function.
			if esc, _ := g.EscapesExit(t.node, barrier, func(*ast.ReturnStmt) bool { return true }); esc {
				reportDeterminism(pass, rs, t, sink)
				return
			}
			continue
		}
		if g.PathTo(t.node, sink.node, barrier) {
			reportDeterminism(pass, rs, t, sink)
			return
		}
	}
}

func reportDeterminism(pass *Pass, rs *ast.RangeStmt, t mapTaint, s taintSink) {
	name := t.sel
	if t.obj != nil {
		name = t.obj.Name()
	}
	pass.Reportf(rs.For,
		"map iteration order flows into %s which reaches %s without a sort on "+
			"every path; Go randomizes map order, so this breaks replay byte-exactness "+
			"(sort the keys first, or sort %s before it escapes)",
		name, s.what, name)
}

type taintSink struct {
	node ast.Node
	kind string // "return", "marshal", "field"
	what string // human description for the diagnostic
}

// taintSinks finds the ordered sinks of one taint within the function body:
// return statements mentioning the object, encoding/json and JSON appender
// calls consuming it, and stores into json-tagged struct fields. Field taints
// sink at their own append (the record field is itself the ordered output).
func taintSinks(pass *Pass, fb funcBody, t mapTaint) []taintSink {
	info := pass.TypesInfo
	var out []taintSink
	if t.sel != "" {
		if as, ok := t.node.(*ast.AssignStmt); ok {
			if sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr); ok && serializedField(info, sel) {
				out = append(out, taintSink{node: t.node, kind: "field",
					what: fmt.Sprintf("serialized record field %s", t.sel)})
			}
		}
		return out
	}
	obj := t.obj
	if !sliceTyped(obj) {
		return nil
	}
	named := namedResult(info, fb, obj)
	ownStmts(fb.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if named || nodeReadsObj(info, n, obj) {
				out = append(out, taintSink{node: n, kind: "return", what: "a return value"})
			}
		case *ast.CallExpr:
			if what := serializingCall(info, n); what != "" && nodeReadsObj(info, n, obj) {
				out = append(out, taintSink{node: n, kind: "marshal", what: what})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !serializedField(info, sel) {
					continue
				}
				if i < len(n.Rhs) && nodeReadsObj(info, n.Rhs[i], obj) {
					out = append(out, taintSink{node: n, kind: "field",
						what: fmt.Sprintf("serialized record field %s", types.ExprString(sel))})
				} else if len(n.Rhs) == 1 && len(n.Lhs) > 1 && nodeReadsObj(info, n.Rhs[0], obj) {
					out = append(out, taintSink{node: n, kind: "field",
						what: fmt.Sprintf("serialized record field %s", types.ExprString(sel))})
				}
			}
		}
		return true
	})
	return out
}

func sliceTyped(obj types.Object) bool {
	if obj == nil || obj.Type() == nil {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}

// namedResult reports whether obj is a named result parameter of the
// function, in which case every return statement (naked included) reads it.
func namedResult(info *types.Info, fb funcBody, obj types.Object) bool {
	var ft *ast.FuncType
	switch {
	case fb.decl != nil:
		ft = fb.decl.Type
	case fb.lit != nil:
		ft = fb.lit.Type
	}
	if ft == nil || ft.Results == nil {
		return false
	}
	for _, fld := range ft.Results.List {
		for _, name := range fld.Names {
			if objOf(info, name) == obj {
				return true
			}
		}
	}
	return false
}

func nodeReadsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(sub ast.Node) bool {
		if found {
			return false
		}
		if id, ok := sub.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// The packages whose JSON is written by hand: every function of jsonencPkg,
// and every appender of apiPkg, writes its arguments out in order.
const (
	jsonencPkg = "griphon/internal/jsonenc"
	apiPkg     = "griphon/internal/api"
)

// serializingCall describes call if it serializes its arguments in order, and
// is "" otherwise. That is an encoding/json entry point (json.Marshal,
// json.MarshalIndent, (*json.Encoder).Encode), any function of jsonencPkg, or
// an appender of apiPkg: a function there whose first parameter and only
// result are []byte. The rule goes by package and shape, so an appender
// added later is a sink without being listed.
func serializingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "encoding/json":
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			return "a json encode call"
		}
	case jsonencPkg:
		return "a JSON appender call"
	case apiPkg:
		if isAppender(fn) {
			return "a JSON appender call"
		}
	}
	return ""
}

// isAppender reports whether fn has an appender's shape: func([]byte, ...)
// []byte.
func isAppender(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// serializedField reports whether sel names a field that ends up in
// serialized output: its struct tag mentions json, or the owning struct is
// one of the journal record types (which encode/gob via exported fields).
func serializedField(info *types.Info, sel *ast.SelectorExpr) bool {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return false
	}
	owner, ok := namedType(selection.Recv())
	if !ok {
		return false
	}
	name := owner.Obj().Name()
	if strings.HasSuffix(name, "Rec") || name == "stateRec" || name == "commitRec" {
		return true
	}
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field || st.Field(i).Name() == field.Name() {
			return strings.Contains(st.Tag(i), "json:")
		}
	}
	return false
}

// sortsTaint reports whether n is a node that fixes or erases the taint's
// order: a sort.*/slices.Sort* call over it, or a plain reassignment that
// overwrites the slice wholesale.
func sortsTaint(info *types.Info, n ast.Node, t mapTaint) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return false
		}
		for _, arg := range n.Args {
			if t.obj != nil && nodeReadsObj(info, arg, t.obj) {
				return true
			}
			if t.sel != "" && types.ExprString(ast.Unparen(arg)) == t.sel {
				return true
			}
		}
	case *ast.AssignStmt:
		if t.obj == nil || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return false
		}
		id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
		if !ok || objOf(info, id) != t.obj {
			return false
		}
		// v = append(v, ...) extends the taint; anything else overwrites it.
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
			return false
		}
		return true
	}
	return false
}
