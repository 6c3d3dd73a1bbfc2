// Package topo models the carrier's physical network: ROADM nodes connected
// by fiber spans into a mesh (the DWDM layer's substrate, paper §2.1), plus
// the customer sites that attach to it through dedicated access pipes.
//
// The graph is deliberately layer-free: wavelengths, ODU slots, transponders
// and switches live in the optics/roadm/otn packages, which hang their state
// off the node and link identifiers defined here.
package topo

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a core network node (a ROADM point of presence).
type NodeID string

// LinkID identifies a bidirectional fiber pair between two nodes.
type LinkID string

// SiteID identifies a customer premises (a data center location).
type SiteID string

// Node is a core PoP hosting a ROADM and, optionally, an OTN switch.
type Node struct {
	ID NodeID
	// HasOTN records whether this PoP hosts an OTN switch for
	// sub-wavelength grooming (paper Fig. 3 places OTN switches at the
	// core PoPs serving data centers).
	HasOTN bool
}

// Link is a bidirectional fiber pair between two nodes. Distance drives the
// optical-reach / regeneration model.
type Link struct {
	ID   LinkID
	A, B NodeID
	// KM is the span length in kilometres.
	KM float64
}

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint of l.
func (l *Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topo: node %s is not an endpoint of link %s", n, l.ID))
}

// Has reports whether n is an endpoint of l.
func (l *Link) Has(n NodeID) bool { return n == l.A || n == l.B }

// Site is a customer premises attached to the core at a home PoP through a
// fixed, dedicated access pipe (the "fat pipe" of paper Fig. 3).
type Site struct {
	ID SiteID
	// Home is the core PoP whose central-office terminal receives this
	// site's access pipe.
	Home NodeID
	// AccessGbps is the capacity of the dedicated access pipe in Gb/s
	// (e.g. 40 for a 10/40 muxponder line side).
	AccessGbps float64
}

// Graph is the core fiber topology plus site attachments. The zero value is
// an empty graph ready to use.
type Graph struct {
	nodes map[NodeID]*Node
	links map[LinkID]*Link
	adj   map[NodeID][]*Link
	sites map[SiteID]*Site

	// compiled caches the integer-indexed view; topology mutations
	// invalidate it (see Index).
	compiled idxCache
	// version counts fiber-topology mutations (nodes and links); caches of
	// computed routes key their validity on it (see Version).
	version uint64
}

// Version returns a counter bumped on every node or link mutation. A cache of
// anything computed from the fiber topology is stale once Version moves.
func (g *Graph) Version() uint64 { return g.version }

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]*Node),
		links: make(map[LinkID]*Link),
		adj:   make(map[NodeID][]*Link),
		sites: make(map[SiteID]*Site),
	}
}

// AddNode adds a node. Adding a duplicate ID is an error.
func (g *Graph) AddNode(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("topo: empty node ID")
	}
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("topo: duplicate node %s", n.ID)
	}
	c := n
	g.nodes[n.ID] = &c
	g.compiled.invalidate()
	g.version++
	return nil
}

// AddLink adds a fiber link. Both endpoints must already exist; self-loops
// and duplicate IDs are errors. The span length must be positive and finite.
func (g *Graph) AddLink(l Link) error {
	if l.ID == "" {
		return fmt.Errorf("topo: empty link ID")
	}
	if _, ok := g.links[l.ID]; ok {
		return fmt.Errorf("topo: duplicate link %s", l.ID)
	}
	if l.A == l.B {
		return fmt.Errorf("topo: link %s is a self-loop at %s", l.ID, l.A)
	}
	if _, ok := g.nodes[l.A]; !ok {
		return fmt.Errorf("topo: link %s references unknown node %s", l.ID, l.A)
	}
	if _, ok := g.nodes[l.B]; !ok {
		return fmt.Errorf("topo: link %s references unknown node %s", l.ID, l.B)
	}
	if !(l.KM > 0) || math.IsInf(l.KM, 1) {
		return fmt.Errorf("topo: link %s has non-positive or non-finite length %.1f km", l.ID, l.KM)
	}
	c := l
	g.links[l.ID] = &c
	g.adj[l.A] = append(g.adj[l.A], &c)
	g.adj[l.B] = append(g.adj[l.B], &c)
	g.compiled.invalidate()
	g.version++
	return nil
}

// AddSite attaches a customer site to its home PoP. The home node must exist.
func (g *Graph) AddSite(s Site) error {
	if s.ID == "" {
		return fmt.Errorf("topo: empty site ID")
	}
	if _, ok := g.sites[s.ID]; ok {
		return fmt.Errorf("topo: duplicate site %s", s.ID)
	}
	if _, ok := g.nodes[s.Home]; !ok {
		return fmt.Errorf("topo: site %s references unknown home node %s", s.ID, s.Home)
	}
	if s.AccessGbps <= 0 {
		return fmt.Errorf("topo: site %s has non-positive access capacity", s.ID)
	}
	c := s
	g.sites[s.ID] = &c
	return nil
}

// Index returns the compiled integer-indexed view of the graph, building it
// on first use and caching it until the next AddNode/AddLink. Safe for
// concurrent use as long as the graph itself is not being mutated.
func (g *Graph) Index() *Index { return g.compiled.get(g) }

// Clone returns a deep copy of the graph: independent node/link/site records
// and a fresh (unbuilt) compiled cache. Shards of a multi-tenant controller
// each clone the topology so their lazily-built Index caches never race.
func (g *Graph) Clone() *Graph {
	c := New()
	for id, n := range g.nodes {
		cp := *n
		c.nodes[id] = &cp
	}
	for _, l := range g.Links() { // sorted, so adjacency order is deterministic
		cp := *l
		c.links[cp.ID] = &cp
		c.adj[cp.A] = append(c.adj[cp.A], &cp)
		c.adj[cp.B] = append(c.adj[cp.B], &cp)
	}
	for id, s := range g.sites {
		cp := *s
		c.sites[id] = &cp
	}
	c.version = g.version
	return c
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Link returns the link with the given ID, or nil.
func (g *Graph) Link(id LinkID) *Link { return g.links[id] }

// Site returns the site with the given ID, or nil.
func (g *Graph) Site(id SiteID) *Site { return g.sites[id] }

// LinkBetween returns a link directly connecting a and b, or nil. If several
// parallel links exist it returns the one with the lowest ID.
func (g *Graph) LinkBetween(a, b NodeID) *Link {
	var best *Link
	for _, l := range g.adj[a] {
		if l.Has(b) {
			if best == nil || l.ID < best.ID {
				best = l
			}
		}
	}
	return best
}

// LinksAt returns the links incident to n, sorted by ID.
func (g *Graph) LinksAt(n NodeID) []*Link {
	out := append([]*Link(nil), g.adj[n]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Degree returns the number of fiber links at n — the ROADM's degree.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns all links sorted by ID.
func (g *Graph) Links() []*Link {
	out := make([]*Link, 0, len(g.links))
	for _, l := range g.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sites returns all sites sorted by ID.
func (g *Graph) Sites() []*Site {
	out := make([]*Site, 0, len(g.sites))
	for _, s := range g.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	var start NodeID
	for id := range g.nodes {
		start = id
		break
	}
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.adj[n] {
			o := l.Other(n)
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// Validate checks structural invariants: a connected graph in which every
// site's home PoP exists. It returns the first problem found.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("topo: graph has no nodes")
	}
	if !g.Connected() {
		return fmt.Errorf("topo: graph is not connected")
	}
	return nil
}
