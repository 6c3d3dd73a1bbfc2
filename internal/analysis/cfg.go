package analysis

// Function-level control-flow graphs for the flow-sensitive analyzers
// (determinism, journaled, leakpath, loopblock, spanpair). The builder covers
// the statement forms the repo actually uses — if/else chains, for and range
// loops, switch/type-switch/select, labeled break/continue, goto, defer,
// return, panic — and deliberately nothing exotic beyond that. Like the rest
// of the package it depends only on the standard library.
//
// Conventions:
//
//   - Block.Nodes holds, in execution order, the simple statements plus the
//     condition/tag expressions evaluated in that block. Control statements
//     themselves (if/for/switch/...) are decomposed into blocks and edges and
//     never appear whole, so walking a block's nodes with nodeScan visits
//     each executable node exactly once.
//   - A block ending in `return` records the statement in Block.Return and
//     has the synthetic Exit block as its only successor. A block ending in
//     panic (or os.Exit) has no successors at all: paths through it never
//     reach Exit, so "on all paths to exit" obligations hold vacuously.
//   - Deferred statements are collected in CFG.Defers rather than threaded
//     through the graph; analyzers that care about at-exit effects (leakpath's
//     `defer txn.Rollback()`) consult that list explicitly.

import (
	"go/ast"
)

// Block is one straight-line run of nodes with explicit control edges.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Return is the statement that terminates this block, when it is an
	// explicit return; nil for fallthrough-to-Exit and all interior blocks.
	Return *ast.ReturnStmt
	// Cond and Then are set on blocks that end by branching on an if
	// condition: Cond is the condition expression and Then the successor
	// taken when it is true. Path queries use this to treat `if err != nil`
	// then-branches as error paths.
	Cond ast.Expr
	Then *Block
}

// CFG is the control-flow graph of one function body (FuncDecl or FuncLit).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists every defer statement in the body, in source order. Their
	// payloads run at function exit, not at the registration point.
	Defers []*ast.DeferStmt
}

// Locate finds the block and node index holding n (or the smallest block
// node positionally containing n, for sub-expressions). Returns (nil, -1)
// when n is not in the graph — e.g. it lives in a nested function literal,
// which gets its own CFG.
func (g *CFG) Locate(n ast.Node) (*Block, int) {
	for _, b := range g.Blocks {
		for i, bn := range b.Nodes {
			if bn == n || (bn.Pos() <= n.Pos() && n.End() <= bn.End()) {
				return b, i
			}
		}
	}
	return nil, -1
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	// Implicit fallthrough off the end of the body.
	b.edge(b.cur, g.Exit)
	b.resolveGotos()
	return g
}

// loopFrame tracks the break/continue targets of one enclosing loop, switch
// or select, together with its label (empty for unlabeled statements).
type loopFrame struct {
	label          string
	breakTarget    *Block
	continueTarget *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block
	gotos  []pendingGoto

	// pendingLabel carries a label down to the loop/switch statement it
	// annotates, so `break L` and `continue L` resolve.
	pendingLabel string
	// ftTargets is a stack of fallthrough targets: while clause i of a
	// switch is being built, the top is clause i+1's entry block (nil for
	// the final clause).
	ftTargets []*Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes to the current block, linking from the present one when
// it is still live. A nil cur means the previous statement terminated flow
// (return/branch/panic); the new block starts unreachable but is still built
// so Locate works on dead code.
func (b *cfgBuilder) startBlock(to *Block) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.cur = to
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // dead code after return/branch
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(f loopFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()             { b.frames = b.frames[:len(b.frames)-1] }

func (b *cfgBuilder) findFrame(label string, needContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTarget == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		follow := b.newBlock()

		then := b.newBlock()
		condBlk.Cond = s.Cond
		condBlk.Then = then
		b.cur = then
		b.edge(condBlk, then)
		b.stmtList(s.Body.List)
		b.edge(b.cur, follow)

		if s.Else != nil {
			els := b.newBlock()
			b.cur = els
			b.edge(condBlk, els)
			b.stmt(s.Else)
			b.edge(b.cur, follow)
		} else {
			b.edge(condBlk, follow)
		}
		b.cur = follow

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		follow := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, follow) // cond false
		}
		b.pushFrame(loopFrame{label: label, breakTarget: follow, continueTarget: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = follow

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.startBlock(head)
		head.Nodes = append(head.Nodes, s.X)
		follow := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.edge(head, follow) // range exhausted
		b.pushFrame(loopFrame{label: label, breakTarget: follow, continueTarget: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, head)
		b.cur = follow

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s, label, s.Body.List)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s, label, s.Body.List)

	case *ast.SelectStmt:
		label := b.takeLabel()
		// The select statement itself is an executable node (it may block);
		// loopblock keys on it. Its comm statements stay inside that node —
		// only the clause bodies become blocks.
		b.add(s)
		b.switchBody(s, label, s.Body.List)

	case *ast.LabeledStmt:
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		target := b.newBlock()
		b.startBlock(target)
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.cur.Return = s
			b.edge(b.cur, b.g.Exit)
		}
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.cur = nil // panic/os.Exit: flow never continues
		}

	case nil:
		// nothing

	default:
		// Assignments, declarations, sends, incdec, go statements, empty
		// statements: straight-line nodes.
		b.add(s)
	}
}

// switchBody builds the clause blocks shared by switch, type switch and
// select. Every clause is a successor of the head block; absent a default
// clause the head also flows straight to the join.
func (b *cfgBuilder) switchBody(s ast.Stmt, label string, clauses []ast.Stmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	follow := b.newBlock()

	// Pre-create clause entry blocks so fallthrough can target clause i+1.
	entries := make([]*Block, len(clauses))
	for i := range clauses {
		entries[i] = b.newBlock()
		b.edge(head, entries[i])
	}
	hasDefault := false
	_, isSelect := s.(*ast.SelectStmt)
	for i, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			body = c.Body
		}
		b.pushFrame(loopFrame{label: label, breakTarget: follow})
		var next *Block
		if i+1 < len(entries) {
			next = entries[i+1]
		}
		b.ftTargets = append(b.ftTargets, next)
		b.cur = entries[i]
		b.stmtList(body)
		b.ftTargets = b.ftTargets[:len(b.ftTargets)-1]
		b.popFrame()
		// A clause ending in fallthrough already redirected flow.
		b.edge(b.cur, follow)
	}
	if !hasDefault && !isSelect {
		// No case matched: execution skips the whole statement. (A select
		// without default blocks until some clause is ready, so its head has
		// no direct edge to the join.)
		b.edge(head, follow)
	}
	b.cur = follow
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if f := b.findFrame(label, false); f != nil {
			b.edge(b.cur, f.breakTarget)
		}
	case "continue":
		if f := b.findFrame(label, true); f != nil {
			b.edge(b.cur, f.continueTarget)
		}
	case "goto":
		if b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		}
	case "fallthrough":
		if n := len(b.ftTargets); n > 0 && b.ftTargets[n-1] != nil {
			b.edge(b.cur, b.ftTargets[n-1])
		}
	}
	b.cur = nil
}

// resolveGotos wires goto edges once all labels are known. Unresolved labels
// (impossible in type-checked code) fall back to the exit block so path
// queries stay conservative.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.edge(g.from, t)
		} else {
			b.edge(g.from, b.g.Exit)
		}
	}
}
