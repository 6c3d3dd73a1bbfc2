package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Loopblock guards the controller's concurrency model ahead of the sharded
// multi-tenant refactor: everything in internal/core runs inside kernel
// events on the single-threaded virtual-time loop (DESIGN.md §3), and a
// per-shard event loop inherits the same contract. Code on that loop must
// never park or fork: no channel sends/receives, no select, no sync.Mutex /
// WaitGroup / Cond waits, no goroutines, and no re-entering the kernel
// (Kernel.Run/RunUntil/RunFor/Step) from inside an event. Long-running work
// — EMS programming, graph choreography — must be expressed as sim.Jobs and
// continuations (Job.OnDone, Kernel.After), which is also why EMS submits
// are asynchronous by construction: a synchronous submit would be a blocking
// wait on hardware and shows up here as the kernel re-entry needed to drive
// it. Unreachable code is not flagged.
var Loopblock = &Analyzer{
	Name: "loopblock",
	Run:  runLoopblock,
}

// loopblockExemptRecv names the cross-shard layer that sits above the
// per-shard event loops rather than on them: the ShardSet drives the shard
// kernels from outside and takes its own mutex around the merged logs,
// and the Coordinator — with its per-shard broker views — is the one
// mutex-guarded structure shared between shard drivers. Methods on these
// receivers, including closures nested inside them, are the deliberate
// exception to the no-blocking rule; everything they call back into (the
// controllers themselves) stays covered.
var loopblockExemptRecv = map[string]bool{
	"ShardSet":    true,
	"Coordinator": true,
	"shardBroker": true,
}

func runLoopblock(pass *Pass) error {
	if NormalizePkgPath(pass.Pkg.Path()) != corePkg {
		return nil
	}
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		exempt := loopblockExemptRanges(f)
		for _, fb := range funcBodies(f) {
			if posInRanges(fb.body.Pos(), exempt) {
				continue
			}
			loopblockFunc(pass, fb)
		}
	}
	return nil
}

// loopblockExemptRanges returns the source span of every exempt-receiver
// method in the file. Position containment also exempts function literals
// nested inside those methods (the merged-log observers, the per-shard drain
// goroutines).
func loopblockExemptRanges(f *ast.File) [][2]token.Pos {
	var out [][2]token.Pos
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
			continue
		}
		if loopblockExemptRecv[recvTypeName(fd.Recv.List[0].Type)] {
			out = append(out, [2]token.Pos{fd.Pos(), fd.End()})
		}
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func posInRanges(p token.Pos, ranges [][2]token.Pos) bool {
	for _, r := range ranges {
		if p >= r[0] && p < r[1] {
			return true
		}
	}
	return false
}

func loopblockFunc(pass *Pass, fb funcBody) {
	g := BuildCFG(fb.body)
	seen := map[*Block]bool{}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, n := range b.Nodes {
			nodeScan(n, func(sub ast.Node) bool {
				return loopblockNode(pass, sub)
			})
		}
		stack = append(stack, b.Succs...)
	}
	// Deferred payloads run at exit, still on the event loop.
	for _, d := range g.Defers {
		if blk, _ := g.Locate(d); blk != nil && !seen[blk] {
			continue // defer in unreachable code
		}
		loopblockNode(pass, d.Call)
	}
	// Range statements are decomposed into blocks, so catch channel ranges
	// at the statement level (the range expression anchors reachability).
	ownStmts(fb.body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.Types[rs.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				if blk, _ := g.Locate(rs.X); blk == nil || seen[blk] {
					pass.Reportf(rs.For, "ranging over a channel blocks the controller event loop")
				}
			}
		}
		return true
	})
}

// loopblockNode reports one blocking construct; returning false prunes the
// walk below a reported node.
func loopblockNode(pass *Pass, n ast.Node) bool {
	info := pass.TypesInfo
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op.String() == "<-" {
			pass.Reportf(n.Pos(), "channel receive blocks the controller event loop; "+
				"use a sim.Job continuation instead")
			return false
		}
	case *ast.SendStmt:
		pass.Reportf(n.Pos(), "channel send blocks the controller event loop; "+
			"use a sim.Job continuation instead")
		return false
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			pass.Reportf(n.Pos(), "select without default blocks the controller event loop")
		}
		// Clause bodies are walked via their own CFG blocks.
		return false
	case *ast.GoStmt:
		pass.Reportf(n.Pos(), "goroutine launched from controller event-loop code; "+
			"the loop owns all state single-threaded — schedule kernel events instead")
		return false
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "sync" &&
			(fn.Name() == "Wait" || fn.Name() == "Lock" || fn.Name() == "RLock"):
			pass.Reportf(n.Pos(), "sync.%s blocks the controller event loop; core state "+
				"is single-threaded by design and needs no locks", fn.Name())
		case methodOn(fn, simPkg, "Kernel", "Run"),
			methodOn(fn, simPkg, "Kernel", "RunUntil"),
			methodOn(fn, simPkg, "Kernel", "RunFor"),
			methodOn(fn, simPkg, "Kernel", "Step"):
			pass.Reportf(n.Pos(), "Kernel.%s re-enters the event loop from inside an event "+
				"(a synchronous wait in disguise); return a sim.Job and continue in OnDone",
				fn.Name())
		case fn.Name() == "Wait" && fn.Pkg().Path() == simPkg:
			pass.Reportf(n.Pos(), "%s.Wait blocks the controller event loop; use OnDone", fn.Pkg().Name())
		}
	}
	return true
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
