package sim

import (
	"fmt"
	"math/bits"
)

// NodeID identifies one node of a Graph: its position in creation order.
type NodeID int

// maxGraphNodes bounds a Graph: a node keeps its successors as one bit each.
const maxGraphNodes = 32

// graphNode is one unit of work plus its wiring; nodes never run twice.
type graphNode struct {
	run   func() *Job
	succs uint32 // bit s set: an edge from this node to node s
	// waiting counts unfinished predecessors; the node starts the instant
	// it reaches zero (all predecessors succeeded). It is decided, -1, once
	// the node has started or was skipped because a (transitive)
	// predecessor failed.
	waiting int32
}

// decided marks a node that has started or was skipped.
const decided = -1

// Graph runs jobs under happens-before constraints: nodes are jobs, edges are
// dependencies, and a node starts the instant its last predecessor completes
// successfully — not when some coarser phase barrier falls. A chain of nodes
// runs its steps one after another, each starting inside the completion of
// the one before; a wider graph lets independent steps overlap, so simulated
// latency is the critical path rather than the sum.
//
// Nodes are declared in a topological order: an edge runs from an earlier
// node to a later one, so a Graph cannot have a cycle. When one completion
// unblocks several nodes they start in creation order, synchronously within
// the completing event.
//
// Failure: a node completing with an error marks every (transitive) dependent
// skipped; independent branches keep running. The graph's job completes when
// all nodes are done, failed or skipped, with the first error in
// node-creation order (not completion order, which would make the reported
// error depend on relative EMS timing).
type Graph struct {
	job   *Job
	nodes []graphNode
	// buf backs nodes up to its length, so a short chain costs one
	// allocation besides its job.
	buf     [4]graphNode
	pending int32
	errNode int32 // the node err came from
	err     error // the error of the failed node created first
	started bool
}

// NewGraph returns an empty graph whose completion is observable via Go's
// returned job.
func NewGraph(k *Kernel) *Graph {
	g := &Graph{job: k.NewJob()}
	g.nodes = g.buf[:0]
	return g
}

// Node adds a unit of work and returns its ID. run is called when the node
// starts and returns the job the node waits on; a nil run (or a run returning
// a nil job) is an instantaneous barrier. Nodes added after Go, or past the
// 32nd, panic.
func (g *Graph) Node(run func() *Job) NodeID {
	if g.started {
		panic("sim: Graph.Node after Go")
	}
	if len(g.nodes) == maxGraphNodes {
		panic(fmt.Sprintf("sim: Graph holds at most %d nodes", maxGraphNodes))
	}
	g.nodes = append(g.nodes, graphNode{run: run})
	return NodeID(len(g.nodes) - 1)
}

// Edge declares that to must not start before from completes successfully.
// from must have been created before to; any other edge — a self-edge, or one
// that could close a cycle — panics. Declaring an edge twice is harmless.
func (g *Graph) Edge(from, to NodeID) {
	if g.started {
		panic("sim: Graph.Edge after Go")
	}
	if from < 0 || from >= to || int(to) >= len(g.nodes) {
		panic(fmt.Sprintf("sim: Graph edge %d -> %d does not run from an earlier node to a later one", from, to))
	}
	n := &g.nodes[from]
	if n.succs&(1<<to) == 0 {
		n.succs |= 1 << to
		g.nodes[to].waiting++
	}
}

// Go starts every root node (in creation order, synchronously) and returns
// the graph's job. An empty graph completes at the current instant.
func (g *Graph) Go() *Job {
	if g.started {
		panic("sim: Graph.Go called twice")
	}
	g.started = true
	g.pending = int32(len(g.nodes))
	if g.pending == 0 {
		g.job.k.Defer(func() { g.job.Complete(nil) })
		return g.job
	}
	for i := range g.nodes {
		if g.nodes[i].waiting == 0 {
			g.start(NodeID(i))
		}
	}
	return g.job
}

// start runs one node whose predecessors have all succeeded. A node with
// nothing to wait on finishes at the current instant, after the events
// already scheduled for it.
func (g *Graph) start(id NodeID) {
	n := &g.nodes[id]
	n.waiting = decided
	var j *Job
	if n.run != nil {
		j = n.run()
	}
	if j == nil {
		g.job.k.Defer(func() { g.finish(id, nil) })
		return
	}
	j.OnDone(func(err error) { g.finish(id, err) })
}

// finish records a node's outcome, releases or skips its dependents, and
// completes the graph's job when nothing is left.
func (g *Graph) finish(id NodeID, err error) {
	succs := g.nodes[id].succs
	g.pending--
	if err != nil {
		if g.err == nil || int32(id) < g.errNode {
			g.err, g.errNode = err, int32(id)
		}
		g.skip(succs)
	} else {
		for ; succs != 0; succs &= succs - 1 {
			s := NodeID(bits.TrailingZeros32(succs))
			sn := &g.nodes[s]
			if sn.waiting == decided {
				continue // already skipped by a failed sibling branch
			}
			sn.waiting--
			if sn.waiting == 0 {
				g.start(s)
			}
		}
	}
	if g.pending == 0 {
		g.job.Complete(g.err)
	}
}

// skip marks the undecided nodes of succs, and transitively their
// successors, skipped.
func (g *Graph) skip(succs uint32) {
	for ; succs != 0; succs &= succs - 1 {
		sn := &g.nodes[bits.TrailingZeros32(succs)]
		if sn.waiting == decided {
			continue // running or finished before the failure landed, or already skipped
		}
		sn.waiting = decided
		g.pending--
		succs |= sn.succs
	}
}
