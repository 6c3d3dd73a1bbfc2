package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// cfgWorld parses and type-checks one source string and returns the tools
// the tests need: the CFG of the named function, the type info, and a node
// finder keyed on called-function names.
type cfgWorld struct {
	t    *testing.T
	fset *token.FileSet
	file *ast.File
	info *types.Info
	fn   *ast.FuncDecl
	cfg  *CFG
}

func buildWorld(t *testing.T, src, fnName string) *cfgWorld {
	t.Helper()
	w := &cfgWorld{t: t, fset: token.NewFileSet()}
	f, err := parser.ParseFile(w.fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	w.file = f
	w.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Error: func(error) {}}
	if _, err := conf.Check("cfgtest", w.fset, []*ast.File{f}, w.info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fnName {
			w.fn = fd
			w.cfg = BuildCFG(fd.Body)
			return w
		}
	}
	t.Fatalf("no function %q in fixture", fnName)
	return nil
}

// call returns the nth (0-based) call to a function with the given name.
func (w *cfgWorld) call(name string, nth int) *ast.CallExpr {
	w.t.Helper()
	var out *ast.CallExpr
	seen := 0
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
			if seen == nth {
				out = call
				return false
			}
			seen++
		}
		return true
	})
	if out == nil {
		w.t.Fatalf("no call #%d to %q in fixture", nth, name)
	}
	return out
}

// barrierOn matches calls to the named function.
func (w *cfgWorld) barrierOn(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
}

func anyExitKind(*ast.ReturnStmt) bool { return true }

const cfgCommonDecls = `
func mark()    {}
func barrier() {}
func sink()    {}
func work()    {}
func cleanup() {}
`

func TestCFGBranches(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(a bool) {
	mark()
	if a {
		work()
	} else {
		barrier()
	}
	sink()
}
`, "f")
	// The then-branch path from mark to sink avoids the barrier in else.
	if !w.cfg.PathTo(w.call("mark", 0), w.call("sink", 0), w.barrierOn("barrier")) {
		t.Errorf("expected a barrier-free path via the then branch")
	}
	// From inside the else branch, every path to sink passes the barrier...
	// except none: the barrier is *before* the join on that path, so starting
	// after work() the else branch is unreachable and sink is reached freely.
	if !w.cfg.PathTo(w.call("work", 0), w.call("sink", 0), w.barrierOn("barrier")) {
		t.Errorf("expected then-branch to reach the join without the else barrier")
	}
	// With the barrier on both branches there is no clean path.
	w2 := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(a bool) {
	mark()
	if a {
		barrier()
	} else {
		barrier()
	}
	sink()
}
`, "f")
	if w2.cfg.PathTo(w2.call("mark", 0), w2.call("sink", 0), w2.barrierOn("barrier")) {
		t.Errorf("both branches carry the barrier; no clean path should exist")
	}
	// An if without else leaks a clean path around a then-only barrier.
	w3 := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(a bool) {
	mark()
	if a {
		barrier()
	}
	sink()
}
`, "f")
	if !w3.cfg.PathTo(w3.call("mark", 0), w3.call("sink", 0), w3.barrierOn("barrier")) {
		t.Errorf("expected the implicit else edge to bypass the barrier")
	}
}

func TestCFGLoops(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(n int) {
	mark()
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		work()
	}
	sink()
}
`, "f")
	// The loop may run zero times: mark reaches sink without entering it.
	if !w.cfg.PathTo(w.call("mark", 0), w.call("sink", 0), w.barrierOn("work")) {
		t.Errorf("expected the zero-iteration path to skip the loop body")
	}
	// Back edge: work reaches itself on the next iteration.
	if !w.cfg.PathTo(w.call("work", 0), w.call("work", 0), nil) {
		t.Errorf("expected the loop back edge to make work reachable from itself")
	}
	// A barrier placed after the loop blocks the only way to sink.
	w2 := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(m map[string]int) {
	mark()
	for range m {
		work()
	}
	barrier()
	sink()
}
`, "f")
	if w2.cfg.PathTo(w2.call("work", 0), w2.call("sink", 0), w2.barrierOn("barrier")) {
		t.Errorf("the only path from the range body to sink passes the barrier")
	}
	// break jumps past the rest of the body to the follow block.
	w3 := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(m map[string]int) {
	for range m {
		work()
		break
	}
	sink()
}
`, "f")
	if !w3.cfg.PathTo(w3.call("work", 0), w3.call("sink", 0), nil) {
		t.Errorf("break should reach the loop follow block")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
type boom struct{}

func (boom) Error() string { return "boom" }

func mkerr() error { return boom{} }

func f(fail bool) error {
	mark()
	if fail {
		err := mkerr()
		if err != nil {
			return err
		}
	}
	barrier()
	return nil
}
`, "f")
	nonError := func(ret *ast.ReturnStmt) bool { return !returnsNonNilError(w.info, ret, false) }
	errorExit := func(ret *ast.ReturnStmt) bool { return returnsNonNilError(w.info, ret, false) }
	// All non-error exits pass the barrier.
	if esc, _ := w.cfg.EscapesExit(w.call("mark", 0), w.barrierOn("barrier"), nonError); esc {
		t.Errorf("the only non-error return is behind the barrier")
	}
	// The early error return escapes the barrier.
	if esc, _ := w.cfg.EscapesExit(w.call("mark", 0), w.barrierOn("barrier"), errorExit); !esc {
		t.Errorf("expected the early `return err` to escape barrier-free")
	}
	// With error then-branches skipped, that escape disappears.
	if esc, _ := w.cfg.EscapesExitSkipErr(w.info, w.call("mark", 0), w.barrierOn("barrier"), anyExitKind); esc {
		t.Errorf("skip-err traversal must not follow the `err != nil` branch")
	}
}

func TestCFGDefer(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f() {
	defer cleanup()
	work()
	sink()
}
`, "f")
	if len(w.cfg.Defers) != 1 {
		t.Fatalf("expected 1 collected defer, got %d", len(w.cfg.Defers))
	}
	// The deferred payload is not an inline barrier: paths from work to the
	// exit do not "pass" cleanup at the registration point.
	if esc, _ := w.cfg.EscapesExit(w.call("work", 0), w.barrierOn("cleanup"), anyExitKind); !esc {
		t.Errorf("defer payloads must not satisfy inline path barriers")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f() {
	work()
	panic("unreachable exit")
}
`, "f")
	if esc, _ := w.cfg.EscapesExit(w.call("work", 0), nil, anyExitKind); esc {
		t.Errorf("a panic-terminated path must not reach the function exit")
	}
}

func TestCFGSwitch(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(n int) {
	mark()
	switch n {
	case 1:
		barrier()
	case 2:
		work()
	}
	sink()
}
`, "f")
	// Case 2 and the no-match edge both bypass the barrier.
	if !w.cfg.PathTo(w.call("mark", 0), w.call("sink", 0), w.barrierOn("barrier")) {
		t.Errorf("expected barrier-free paths through case 2 and the no-match edge")
	}
	// With a default, all paths are enumerated; barrier everywhere blocks.
	w2 := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f(n int) {
	mark()
	switch n {
	case 1:
		barrier()
	default:
		barrier()
	}
	sink()
}
`, "f")
	if w2.cfg.PathTo(w2.call("mark", 0), w2.call("sink", 0), w2.barrierOn("barrier")) {
		t.Errorf("every switch arm carries the barrier; no clean path should exist")
	}
}

func TestCFGReachable(t *testing.T) {
	w := buildWorld(t, `package cfgtest
`+cfgCommonDecls+`
func f() {
	work()
	return
	sink() //lint:ignore this is intentionally dead
}
`, "f")
	deadBlk, _ := w.cfg.Locate(w.call("sink", 0))
	if deadBlk == nil {
		t.Fatalf("dead code should still be located in the graph")
	}
	if len(deadBlk.Preds) != 0 || deadBlk == w.cfg.Entry {
		t.Errorf("code after return must be unreachable: %d predecessors", len(deadBlk.Preds))
	}
	if liveBlk, _ := w.cfg.Locate(w.call("work", 0)); liveBlk != w.cfg.Entry {
		t.Errorf("entry statements must be in the entry block")
	}
}
