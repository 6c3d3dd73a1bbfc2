package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

const (
	otnPkg    = "griphon/internal/otn"
	opticsPkg = "griphon/internal/optics"
)

// Journaled enforces DESIGN.md §10's commit-point discipline: every mutation
// of durable controller state must reach a journalCommit on all non-error
// paths before the kernel event ends, or the WAL silently diverges from the
// live controller — the PR 5 SetQuota gap, where quota changes survived in
// memory but vanished on replay. Durable state is exactly what commitRec
// serializes unconditionally: Connection.stable (the stable-state mirror),
// Rate, Rolls, Restorations, carries and onProtect; Booking.phase; the
// bookings and pipeCarrier maps; pipe add/remove/up-down (otn.Fabric,
// otn.Pipe.SetUp); link state (optics.Plant.SetLinkUp); and customer quotas
// (inventory.Ledger.SetQuota). Phase-gated fields (a pending connection's
// path, slots or Conns list) are excluded: they become durable only when the
// gating stable-state/phase transition commits.
//
// A mutation inside a helper is fine when every caller commits after the
// call on all non-error paths (coverage is transitive: CutFiber commits for
// hitByCut, which commits for protectionSwitch). A mutation inside a closure
// must commit within the closure — callbacks run in their own kernel event,
// where no caller can commit for them.
var Journaled = &Analyzer{
	Name: "journaled",
	Run:  runJournaled,
}

// journaledExemptFiles are the journal's own consumers: replay applies
// records to state by construction and must not re-commit while folding.
func journaledExemptFile(name string) bool {
	return filepath.Base(name) == "rehydrate.go"
}

type jmutation struct {
	node ast.Node
	what string
}

// jfunc is one executable scope (declaration or literal) with its CFG.
type jfunc struct {
	cfg       *CFG
	mutations []jmutation
	calls     []*ast.CallExpr
	// summaryCommits: every non-error path from entry to exit passes a
	// commit node (fixpoint over callee summaries).
	summaryCommits bool
	// covered: every call site is followed by a commit on all non-error
	// paths, or its caller is itself covered.
	covered bool
}

func runJournaled(pass *Pass) error {
	if NormalizePkgPath(pass.Pkg.Path()) != corePkg {
		return nil
	}
	info := pass.TypesInfo

	var funcs []*jfunc
	declOf := map[*types.Func]*jfunc{}
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if inTestFile(pass.Fset, f.Pos()) || journaledExemptFile(pos.Filename) {
			continue
		}
		for _, fb := range funcBodies(f) {
			jf := &jfunc{cfg: BuildCFG(fb.body)}
			jf.mutations = durableMutations(pass, fb)
			ownStmts(fb.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					jf.calls = append(jf.calls, call)
				}
				return true
			})
			funcs = append(funcs, jf)
			if fb.decl != nil {
				if fn, ok := info.Defs[fb.decl.Name].(*types.Func); ok {
					declOf[fn] = jf
				}
			}
		}
	}

	// isCommit: a journalCommit call, or a call to a helper whose summary
	// says it commits on every non-error path.
	isCommit := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return false
		}
		if methodOn(fn, corePkg, "Controller", "journalCommit") {
			return true
		}
		callee := declOf[fn]
		return callee != nil && callee.summaryCommits
	}
	anyExit := func(ret *ast.ReturnStmt) bool { return !returnsNonNilError(info, ret, false) }

	// Fixpoint 1: commit summaries (grows monotonically as helpers whose
	// only "commit" is a call to another committing helper flip true).
	for changed := true; changed; {
		changed = false
		for _, jf := range funcs {
			if jf.summaryCommits {
				continue
			}
			if esc, _ := jf.cfg.EscapesFromEntry(info, isCommit, anyExit); !esc {
				jf.summaryCommits = true
				changed = true
			}
		}
	}

	// Call sites of each declared function, for coverage.
	type site struct {
		caller *jfunc
		call   *ast.CallExpr
	}
	sites := map[*jfunc][]site{}
	for _, jf := range funcs {
		for _, call := range jf.calls {
			if callee := declOf[calleeFunc(info, call)]; callee != nil {
				sites[callee] = append(sites[callee], site{caller: jf, call: call})
			}
		}
	}

	// Fixpoint 2: caller coverage (least fixpoint from false, so mutual
	// recursion without a commit stays uncovered).
	commitsAfter := func(s site) bool {
		esc, _ := s.caller.cfg.EscapesExitSkipErr(info, s.call, isCommit, anyExit)
		return !esc
	}
	for changed := true; changed; {
		changed = false
		for _, jf := range funcs {
			if jf.covered || len(sites[jf]) == 0 {
				continue
			}
			ok := true
			for _, s := range sites[jf] {
				if !commitsAfter(s) && !s.caller.covered {
					ok = false
					break
				}
			}
			if ok {
				jf.covered = true
				changed = true
			}
		}
	}

	for _, jf := range funcs {
		if jf.covered {
			continue
		}
		for _, m := range jf.mutations {
			if esc, ret := jf.cfg.EscapesExitSkipErr(info, m.node, isCommit, anyExit); esc {
				where := "function exit"
				if ret != nil {
					where = "a non-error return"
				}
				pass.Reportf(m.node.Pos(),
					"durable state mutation (%s) can reach %s without a journalCommit "+
						"on a non-error path: the WAL will diverge from memory and replay "+
						"will not reproduce this state", m.what, where)
			}
		}
	}
	return nil
}

// durableMutations collects the journal-relevant mutations in one function
// body (nested literals excluded — they are their own scope).
func durableMutations(pass *Pass, fb funcBody) []jmutation {
	info := pass.TypesInfo
	var out []jmutation
	add := func(n ast.Node, what string) { out = append(out, jmutation{node: n, what: what}) }
	ownStmts(fb.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if w := durableField(info, lhs); w != "" {
						add(n, w)
					}
				case *ast.IndexExpr:
					if w := durableMap(info, lhs.X); w != "" {
						add(n, w+" entry")
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				if w := durableField(info, sel); w != "" {
					add(n, w)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 2 {
					if w := durableMap(info, n.Args[0]); w != "" {
						add(n, w+" delete")
					}
				}
				return true
			}
			fn := calleeFunc(info, n)
			switch {
			case methodOn(fn, otnPkg, "Fabric", "AddPipe"),
				methodOn(fn, otnPkg, "Fabric", "RemovePipe"):
				add(n, "otn.Fabric."+fn.Name())
			case methodOn(fn, otnPkg, "Pipe", "SetUp"):
				add(n, "otn.Pipe.SetUp")
			case methodOn(fn, opticsPkg, "Plant", "SetLinkUp"):
				add(n, "optics.Plant.SetLinkUp")
			case methodOn(fn, inventoryPkg, "Ledger", "SetQuota"):
				add(n, "inventory.Ledger.SetQuota")
			}
		}
		return true
	})
	return out
}

// durableField matches selectors of the unconditionally-serialized fields of
// core.Connection and core.Booking, returning a description or "".
func durableField(info *types.Info, sel *ast.SelectorExpr) string {
	owner, field, ok := fieldOf(info, sel)
	if !ok {
		return ""
	}
	switch {
	case owner == "Connection":
		switch field {
		case "stable", "Rate", "Rolls", "Restorations", "carries", "onProtect":
			return "Connection." + field
		}
	case owner == "Booking" && field == "phase":
		return "Booking.phase"
	}
	return ""
}

// durableMap matches the Controller's journaled map fields.
func durableMap(info *types.Info, x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	owner, field, ok := fieldOf(info, sel)
	if !ok || owner != "Controller" {
		return ""
	}
	if field == "bookings" || field == "pipeCarrier" {
		return "Controller." + field
	}
	return ""
}

// fieldOf resolves a selector to (owning core type name, field name).
func fieldOf(info *types.Info, sel *ast.SelectorExpr) (string, string, bool) {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", "", false
	}
	owner, ok := namedType(selection.Recv())
	if !ok {
		return "", "", false
	}
	obj := owner.Obj()
	if obj.Pkg() == nil || NormalizePkgPath(obj.Pkg().Path()) != corePkg {
		return "", "", false
	}
	return obj.Name(), selection.Obj().Name(), true
}
