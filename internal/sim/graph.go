package sim

import "fmt"

// NodeID identifies one node of a Graph.
type NodeID int

// graphNode is one unit of work plus its wiring. state tracks the node
// through its lifecycle; nodes never run twice.
type graphNode struct {
	name  string
	run   func() *Job
	succs []NodeID
	// waiting counts unfinished predecessors; the node starts the instant
	// it reaches zero (all predecessors succeeded).
	waiting int
	state   nodeState
	err     error
}

type nodeState int

const (
	nodePending nodeState = iota
	nodeRunning
	nodeDone    // completed without error
	nodeFailed  // completed with error
	nodeSkipped // a (transitive) predecessor failed; never started
)

// Graph runs jobs under happens-before constraints: nodes are jobs, edges are
// dependencies, and a node starts the instant its last predecessor completes
// successfully — not when some coarser phase barrier falls. It is the
// replacement for chaining independent EMS steps through Sequence, where
// simulated latency is the sum of every step even when steps touch
// independent elements.
//
// Determinism: when one completion unblocks several nodes they start in
// node-creation order, synchronously within the completing event, exactly as
// Sequence starts its next step inside the previous step's completion
// callback. A linear chain of Graph nodes is therefore event-for-event
// identical to the equivalent Sequence.
//
// Failure: a node completing with an error marks every (transitive) dependent
// skipped; independent branches keep running. The graph's job completes when
// all nodes are done, failed or skipped, with the first error in
// node-creation order (not completion order, which would make the reported
// error depend on relative EMS timing).
type Graph struct {
	k       *Kernel
	nodes   []graphNode
	job     *Job
	started bool
	pending int
}

// NewGraph returns an empty graph whose completion is observable via Go's
// returned job.
func NewGraph(k *Kernel) *Graph {
	return &Graph{k: k, job: k.NewJob()}
}

// Node adds a unit of work and returns its ID. run is called when the node
// starts and returns the job the node waits on; a nil run (or a run returning
// a nil job) is an instantaneous barrier. Nodes added after Go panic.
func (g *Graph) Node(name string, run func() *Job) NodeID {
	if g.started {
		panic("sim: Graph.Node after Go")
	}
	g.nodes = append(g.nodes, graphNode{name: name, run: run})
	return NodeID(len(g.nodes) - 1)
}

// Edge declares that to must not start before from completes successfully.
// Duplicate edges are harmless but count twice; self-edges panic immediately,
// longer cycles panic at Go.
func (g *Graph) Edge(from, to NodeID) {
	if g.started {
		panic("sim: Graph.Edge after Go")
	}
	if from == to {
		panic(fmt.Sprintf("sim: Graph self-edge on node %d (%s)", from, g.nodes[from].name))
	}
	g.nodes[from].succs = append(g.nodes[from].succs, to)
	g.nodes[to].waiting++
}

// Go validates the graph is acyclic, starts every root node (in creation
// order, synchronously) and returns the graph's job. An empty graph completes
// at the current instant.
func (g *Graph) Go() *Job {
	if g.started {
		panic("sim: Graph.Go called twice")
	}
	g.started = true
	g.checkAcyclic()
	g.pending = len(g.nodes)
	if g.pending == 0 {
		g.k.Defer(func() { g.job.Complete(nil) })
		return g.job
	}
	for i := range g.nodes {
		if g.nodes[i].waiting == 0 {
			g.start(NodeID(i))
		}
	}
	return g.job
}

// checkAcyclic runs Kahn's algorithm over a scratch copy of the in-degrees;
// a cycle is a construction bug, so it panics rather than erroring.
func (g *Graph) checkAcyclic() {
	indeg := make([]int, len(g.nodes))
	for i := range g.nodes {
		indeg[i] = g.nodes[i].waiting
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range g.nodes[n].succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(g.nodes) {
		panic(fmt.Sprintf("sim: Graph has a dependency cycle (%d of %d nodes reachable)", seen, len(g.nodes)))
	}
}

// start runs one node whose predecessors have all succeeded.
func (g *Graph) start(id NodeID) {
	n := &g.nodes[id]
	n.state = nodeRunning
	var j *Job
	if n.run != nil {
		j = n.run()
	}
	if j == nil {
		j = g.k.CompletedJob(nil)
	}
	j.OnDone(func(err error) { g.finish(id, err) })
}

// finish records a node's outcome, releases or skips its dependents, and
// completes the graph's job when nothing is left.
func (g *Graph) finish(id NodeID, err error) {
	n := &g.nodes[id]
	n.err = err
	if err != nil {
		n.state = nodeFailed
	} else {
		n.state = nodeDone
	}
	g.pending--
	if err != nil {
		g.skipDependents(id)
	} else {
		for _, s := range n.succs {
			sn := &g.nodes[s]
			if sn.state != nodePending {
				continue // already skipped by a failed sibling branch
			}
			sn.waiting--
			if sn.waiting == 0 {
				g.start(s)
			}
		}
	}
	if g.pending == 0 {
		g.job.Complete(g.firstErr())
	}
}

// skipDependents marks every pending (transitive) dependent of id skipped.
func (g *Graph) skipDependents(id NodeID) {
	stack := append([]NodeID(nil), g.nodes[id].succs...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sn := &g.nodes[s]
		if sn.state != nodePending {
			continue // running or finished before the failure landed, or already skipped
		}
		sn.state = nodeSkipped
		g.pending--
		stack = append(stack, sn.succs...)
	}
}

// firstErr returns the first node error in creation order.
func (g *Graph) firstErr() error {
	for i := range g.nodes {
		if g.nodes[i].err != nil {
			return g.nodes[i].err
		}
	}
	return nil
}
