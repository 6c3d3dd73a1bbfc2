package topo

import "sync"

// Index is a compiled, integer-indexed view of a Graph: every node and link
// is assigned a dense index (position in the ID-sorted order), and adjacency
// is stored in CSR form so path search can run on flat arrays instead of
// string-keyed maps. Because indices are assigned in sorted-ID order,
// comparing two indices orders exactly like comparing the underlying IDs —
// which is what keeps the compiled search's tie-breaks byte-identical to the
// string implementation it replaced.
//
// An Index is immutable once built. The Graph caches one and invalidates it
// on any topology mutation (AddNode/AddLink), so callers just use
// Graph.Index() and never hold an Index across mutations.
type Index struct {
	nodes []*Node // position = dense node index; sorted by NodeID
	links []*Link // position = dense link index; sorted by LinkID

	nodeIdx map[NodeID]int32
	linkIdx map[LinkID]int32

	// CSR adjacency: the links at node n are adjLink[adjStart[n]:adjStart[n+1]],
	// with adjNode holding the far endpoint of each. Within a node the links
	// are ordered by LinkID, matching Graph.LinksAt.
	adjStart []int32
	adjLink  []int32
	adjNode  []int32

	linkKM       []float64
	linkA, linkB []int32
}

// buildIndex compiles g. It assumes g is not mutated during the build.
func buildIndex(g *Graph) *Index {
	nodes := g.Nodes()
	links := g.Links()
	ix := &Index{
		nodes:    nodes,
		links:    links,
		nodeIdx:  make(map[NodeID]int32, len(nodes)),
		linkIdx:  make(map[LinkID]int32, len(links)),
		adjStart: make([]int32, len(nodes)+1),
		adjLink:  make([]int32, 2*len(links)),
		adjNode:  make([]int32, 2*len(links)),
		linkKM:   make([]float64, len(links)),
		linkA:    make([]int32, len(links)),
		linkB:    make([]int32, len(links)),
	}
	for i, n := range nodes {
		ix.nodeIdx[n.ID] = int32(i)
	}
	for i, l := range links {
		ix.linkIdx[l.ID] = int32(i)
		ix.linkKM[i] = l.KM
		ix.linkA[i] = ix.nodeIdx[l.A]
		ix.linkB[i] = ix.nodeIdx[l.B]
	}
	// Count degrees, then fill. Iterating links in index (= LinkID) order
	// fills each node's adjacency run already sorted by LinkID.
	for i := range links {
		ix.adjStart[ix.linkA[i]+1]++
		ix.adjStart[ix.linkB[i]+1]++
	}
	for n := 0; n < len(nodes); n++ {
		ix.adjStart[n+1] += ix.adjStart[n]
	}
	fill := make([]int32, len(nodes))
	for i := range links {
		a, b := ix.linkA[i], ix.linkB[i]
		pa := ix.adjStart[a] + fill[a]
		ix.adjLink[pa], ix.adjNode[pa] = int32(i), b
		fill[a]++
		pb := ix.adjStart[b] + fill[b]
		ix.adjLink[pb], ix.adjNode[pb] = int32(i), a
		fill[b]++
	}
	return ix
}

// NumNodes returns the node count.
func (ix *Index) NumNodes() int { return len(ix.nodes) }

// NumLinks returns the link count.
func (ix *Index) NumLinks() int { return len(ix.links) }

// NodeIndex returns the dense index of a node ID.
func (ix *Index) NodeIndex(id NodeID) (int32, bool) {
	i, ok := ix.nodeIdx[id]
	return i, ok
}

// LinkIndex returns the dense index of a link ID.
func (ix *Index) LinkIndex(id LinkID) (int32, bool) {
	i, ok := ix.linkIdx[id]
	return i, ok
}

// NodeIDAt returns the ID of the node at dense index i.
func (ix *Index) NodeIDAt(i int32) NodeID { return ix.nodes[i].ID }

// LinkIDAt returns the ID of the link at dense index i.
func (ix *Index) LinkIDAt(i int32) LinkID { return ix.links[i].ID }

// LinkKM returns the span length of the link at dense index i.
func (ix *Index) LinkKM(i int32) float64 { return ix.linkKM[i] }

// Adjacency returns the links incident to node n and the corresponding far
// endpoints, ordered by LinkID. The slices alias the index's storage: do not
// modify them.
func (ix *Index) Adjacency(n int32) (links, nodes []int32) {
	lo, hi := ix.adjStart[n], ix.adjStart[n+1]
	return ix.adjLink[lo:hi], ix.adjNode[lo:hi]
}

// idxCache is the Graph-side cache of the compiled index. It lives in its own
// struct so Graph's zero/New construction stays trivial.
type idxCache struct {
	mu  sync.Mutex
	idx *Index
}

func (c *idxCache) get(g *Graph) *Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx == nil {
		c.idx = buildIndex(g)
	}
	return c.idx
}

func (c *idxCache) invalidate() {
	c.mu.Lock()
	c.idx = nil
	c.mu.Unlock()
}
