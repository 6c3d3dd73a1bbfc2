package analysis

// Path queries over the CFGs built in cfg.go. Two primitives carry the
// flow-sensitive analyzers:
//
//   - PathTo: can execution get from node A to node B without passing a
//     barrier? (determinism: loop exit -> sink avoiding sort.*)
//   - EscapesExit: can execution get from node A to a function exit of a
//     given kind without passing a barrier? (journaled: mutation -> non-error
//     return avoiding journalCommit; leakpath: claim -> error return avoiding
//     rollback/commit; spanpair: Start -> any exit avoiding End)
//
// Traversal is block-level breadth-first with the barrier predicate applied
// to every executable sub-node (nodeScan); cycles terminate because each
// block is expanded once.

import (
	"go/ast"
	"go/types"
)

// nodeScan calls f on n and its executable sub-nodes in source order. It
// does not descend into nested function literals (they run on their own
// schedule and get their own CFG), defer payloads (they run at exit, not at
// the registration point) or select clause bodies (those have their own CFG
// blocks; scanning them here would credit one clause's effects to paths
// through another). The pruned node itself is still passed to f. f returning
// false prunes the subtree.
func nodeScan(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return true
		}
		if !f(sub) {
			return false
		}
		switch sub.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.SelectStmt:
			return false
		}
		return true
	})
}

// nodeContains reports whether outer positionally contains inner.
func nodeContains(outer, inner ast.Node) bool {
	return outer == inner || (outer.Pos() <= inner.Pos() && inner.End() <= outer.End())
}

// blockScan walks b.Nodes from index start. For each node it first checks
// found (positional containment of the target or a predicate hit), then
// barrier. It returns (hit, blocked): hit when the target was found before
// any barrier, blocked when a barrier fired first.
func blockScan(b *Block, start int, found func(ast.Node) bool, barrier func(ast.Node) bool) (bool, bool) {
	for i := start; i < len(b.Nodes); i++ {
		n := b.Nodes[i]
		if found != nil && found(n) {
			return true, false
		}
		if barrier != nil {
			hit := false
			nodeScan(n, func(sub ast.Node) bool {
				if hit {
					return false
				}
				if barrier(sub) {
					hit = true
					return false
				}
				return true
			})
			if hit {
				return false, true
			}
		}
	}
	return false, false
}

// PathTo reports whether some execution path starting immediately after
// `from` can reach `to` without first passing a node for which barrier is
// true. Both nodes must be locatable in g (sub-expressions resolve to their
// enclosing block node). When `to` cannot be located the answer is false.
func (g *CFG) PathTo(from, to ast.Node, barrier func(ast.Node) bool) bool {
	fb, fi := g.Locate(from)
	tb, _ := g.Locate(to)
	if fb == nil || tb == nil {
		return false
	}
	found := func(n ast.Node) bool { return nodeContains(n, to) }
	// Scan the remainder of the start block.
	if hit, blocked := blockScan(fb, fi+1, found, barrier); hit {
		return true
	} else if blocked {
		return false
	}
	seen := map[*Block]bool{}
	queue := append([]*Block{}, fb.Succs...)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		if hit, blocked := blockScan(b, 0, found, barrier); hit {
			return true
		} else if blocked {
			continue
		}
		queue = append(queue, b.Succs...)
	}
	return false
}

// EscapesExit reports whether some execution path starting immediately after
// `from` reaches a function exit matching exitMatters without first passing
// a barrier node. exitMatters is called with the terminating return
// statement (nil for the implicit fallthrough off the end of the body); it
// returns true when that kind of exit counts. The second result is the
// return statement of the first counting escape found (nil for fallthrough
// exits), for diagnostics.
func (g *CFG) EscapesExit(from ast.Node, barrier func(ast.Node) bool, exitMatters func(*ast.ReturnStmt) bool) (bool, *ast.ReturnStmt) {
	fb, fi := g.Locate(from)
	if fb == nil {
		return false, nil
	}
	return g.escapes(fb, fi+1, barrier, exitMatters, nil)
}

// EscapesExitSkipErr is EscapesExit restricted to non-error paths: edges
// into the then-branch of an `<errish> != nil` condition are not followed.
// This is the journaled analyzer's traversal — a durable mutation whose only
// uncommitted continuations run error handling is not a finding.
func (g *CFG) EscapesExitSkipErr(info *types.Info, from ast.Node, barrier func(ast.Node) bool, exitMatters func(*ast.ReturnStmt) bool) (bool, *ast.ReturnStmt) {
	fb, fi := g.Locate(from)
	if fb == nil {
		return false, nil
	}
	return g.escapes(fb, fi+1, barrier, exitMatters, info)
}

// EscapesFromEntry is EscapesExit measured from the top of the function: can
// any path from entry reach a matching exit without passing a barrier node?
// Its negation is the "always on every path" summary the journaled analyzer
// uses for helper functions. errInfo, when non-nil, skips error then-branches
// as in EscapesExitSkipErr.
func (g *CFG) EscapesFromEntry(errInfo *types.Info, barrier func(ast.Node) bool, exitMatters func(*ast.ReturnStmt) bool) (bool, *ast.ReturnStmt) {
	return g.escapes(g.Entry, 0, barrier, exitMatters, errInfo)
}

func (g *CFG) escapes(fb *Block, fi int, barrier func(ast.Node) bool, exitMatters func(*ast.ReturnStmt) bool, errInfo *types.Info) (bool, *ast.ReturnStmt) {
	type item struct {
		b     *Block
		start int
	}
	seen := map[*Block]bool{}
	queue := []item{{fb, fi}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.start == 0 {
			if seen[it.b] {
				continue
			}
			seen[it.b] = true
		}
		if _, blocked := blockScan(it.b, it.start, nil, barrier); blocked {
			continue
		}
		for _, s := range it.b.Succs {
			if errInfo != nil && s == it.b.Then && it.b.Cond != nil && errNilCond(errInfo, it.b.Cond) {
				continue // error-handling branch: exempt path
			}
			if s == g.Exit {
				if exitMatters(it.b.Return) {
					return true, it.b.Return
				}
				continue
			}
			queue = append(queue, item{s, 0})
		}
	}
	return false, nil
}

// returnsNonNilError reports whether ret carries an error that is not the
// nil literal: `return err`, `return fmt.Errorf(...)`, `return nil, err` and
// friends. A nil ret (implicit fallthrough exit) and `return nil` yield
// false. Naked returns in functions with a named error result are treated as
// error-carrying only if conservative is true.
func returnsNonNilError(info *types.Info, ret *ast.ReturnStmt, conservative bool) bool {
	if ret == nil {
		return false
	}
	if len(ret.Results) == 0 {
		return conservative
	}
	for _, r := range ret.Results {
		if isNil(info, r) {
			continue
		}
		t := info.Types[ast.Unparen(r)].Type
		if t == nil {
			continue
		}
		if types.Implements(t, errorInterface()) || t.String() == "error" {
			return true
		}
	}
	return false
}

// objOf resolves an identifier to its object whether the site is a
// definition (`:=`) or a use (`=`).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isTerminalCall reports whether the expression is a call that never
// returns: the panic builtin or os.Exit.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}

// funcBodies yields every function body in the file — declarations and
// literals — along with the declaration it belongs to (nil for literals) so
// analyzers can build one CFG per executable scope.
type funcBody struct {
	decl *ast.FuncDecl // nil for function literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, funcBody{decl: n, body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{lit: n, body: n.Body})
		}
		return true
	})
	return out
}
