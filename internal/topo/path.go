package topo

import (
	"fmt"
	"strings"
)

// Path is a loop-free walk through the core: Nodes[0] is the source PoP,
// Nodes[len-1] the destination, and Links[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []NodeID
	Links []LinkID
}

// Hops returns the number of fiber links the path traverses.
func (p Path) Hops() int { return len(p.Links) }

// Src returns the first node, or "" for an empty path.
func (p Path) Src() NodeID {
	if len(p.Nodes) == 0 {
		return ""
	}
	return p.Nodes[0]
}

// Dst returns the last node, or "" for an empty path.
func (p Path) Dst() NodeID {
	if len(p.Nodes) == 0 {
		return ""
	}
	return p.Nodes[len(p.Nodes)-1]
}

// KM returns the total span length of the path in g. Unknown links count as
// zero (Validate catches them).
func (p Path) KM(g *Graph) float64 {
	var km float64
	for _, id := range p.Links {
		if l := g.Link(id); l != nil {
			km += l.KM
		}
	}
	return km
}

// HasLink reports whether the path traverses the given link.
func (p Path) HasLink(id LinkID) bool {
	for _, l := range p.Links {
		if l == id {
			return true
		}
	}
	return false
}

// Intermediate returns the nodes strictly between source and destination —
// the ROADMs that express (or regenerate) the signal.
func (p Path) Intermediate() []NodeID {
	if len(p.Nodes) <= 2 {
		return nil
	}
	return append([]NodeID(nil), p.Nodes[1:len(p.Nodes)-1]...)
}

// Equal reports whether p and q traverse identical node and link sequences.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return true
}

// String renders the path as "I-II-III-IV", the notation paper Table 2 uses.
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = string(n)
	}
	return strings.Join(parts, "-")
}

// Validate checks that the path is structurally sound in g: consecutive
// nodes joined by the stated links, no repeated nodes, all IDs known.
func (p Path) Validate(g *Graph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("topo: empty path")
	}
	if len(p.Links) != len(p.Nodes)-1 {
		return fmt.Errorf("topo: path has %d nodes but %d links", len(p.Nodes), len(p.Links))
	}
	seen := make(map[NodeID]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if g.Node(n) == nil {
			return fmt.Errorf("topo: path references unknown node %s", n)
		}
		if seen[n] {
			return fmt.Errorf("topo: path visits node %s twice", n)
		}
		seen[n] = true
	}
	for i, id := range p.Links {
		l := g.Link(id)
		if l == nil {
			return fmt.Errorf("topo: path references unknown link %s", id)
		}
		if !(l.Has(p.Nodes[i]) && l.Has(p.Nodes[i+1])) {
			return fmt.Errorf("topo: link %s does not join %s and %s", id, p.Nodes[i], p.Nodes[i+1])
		}
	}
	return nil
}

// PathVia builds a Path from a node sequence, resolving each consecutive
// pair to the (lowest-ID) direct link between them.
func PathVia(g *Graph, nodes ...NodeID) (Path, error) {
	if len(nodes) < 2 {
		return Path{}, fmt.Errorf("topo: path needs at least two nodes")
	}
	p := Path{Nodes: append([]NodeID(nil), nodes...)}
	for i := 0; i+1 < len(nodes); i++ {
		l := g.LinkBetween(nodes[i], nodes[i+1])
		if l == nil {
			return Path{}, fmt.Errorf("topo: no link between %s and %s", nodes[i], nodes[i+1])
		}
		p.Links = append(p.Links, l.ID)
	}
	if err := p.Validate(g); err != nil {
		return Path{}, err
	}
	return p, nil
}
