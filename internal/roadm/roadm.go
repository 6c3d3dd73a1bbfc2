// Package roadm models the reconfigurable optical add/drop multiplexers of
// the DWDM layer (paper §2.1): multi-degree nodes whose add/drop ports are
// colorless (any port, any wavelength) and non-directional (any port, any
// degree), plus per-wavelength express cross-connects between degrees. The
// spectrum on each fiber is tracked by internal/optics; this package tracks
// the switching state INSIDE each node, including the finite add/drop port
// bank — a real blocking dimension the paper's pooled-transponder design
// depends on.
package roadm

import (
	"fmt"
	"sort"

	"griphon/internal/optics"
	"griphon/internal/topo"
)

// Node is one ROADM's switching state.
type Node struct {
	id      topo.NodeID
	degrees map[topo.LinkID]bool

	// addDropTotal is the size of the colorless/directionless add-drop
	// bank.
	addDropTotal int
	addDropUsed  int

	// adds records terminations: channel+degree -> owner.
	adds map[termKey]string
	// expresses records pass-throughs: channel+degree pair -> owner.
	expresses map[exprKey]string
	// byOwner indexes all state for O(1) release.
	byOwner map[string][]any

	// reconfigs counts configuration operations (EMS visibility).
	reconfigs int
}

type termKey struct {
	ch  optics.Channel
	deg topo.LinkID
}

type exprKey struct {
	ch      optics.Channel
	in, out topo.LinkID
}

// NewNode creates a ROADM with the given degrees (its incident fiber links)
// and add/drop bank size.
func NewNode(id topo.NodeID, degrees []topo.LinkID, addDropPorts int) (*Node, error) {
	if len(degrees) == 0 {
		return nil, fmt.Errorf("roadm: node %s has no degrees", id)
	}
	if addDropPorts <= 0 {
		return nil, fmt.Errorf("roadm: node %s needs a positive add/drop bank", id)
	}
	n := &Node{
		id:           id,
		degrees:      make(map[topo.LinkID]bool, len(degrees)),
		addDropTotal: addDropPorts,
		adds:         make(map[termKey]string),
		expresses:    make(map[exprKey]string),
		byOwner:      make(map[string][]any),
	}
	for _, d := range degrees {
		if n.degrees[d] {
			return nil, fmt.Errorf("roadm: node %s duplicate degree %s", id, d)
		}
		n.degrees[d] = true
	}
	return n, nil
}

// AddDropFree returns the number of free add/drop ports.
func (n *Node) AddDropFree() int { return n.addDropTotal - n.addDropUsed }

// AddDropUsed returns the number of add/drop ports in use.
func (n *Node) AddDropUsed() int { return n.addDropUsed }

// Terminate configures an add/drop termination: channel ch arriving/leaving
// on the given degree is dropped to (and added from) a colorless,
// non-directional port. It consumes one add/drop port.
func (n *Node) Terminate(ch optics.Channel, deg topo.LinkID, owner string) error {
	if owner == "" {
		return fmt.Errorf("roadm: empty owner at %s", n.id)
	}
	if !n.degrees[deg] {
		return fmt.Errorf("roadm: node %s has no degree %s", n.id, deg)
	}
	k := termKey{ch, deg}
	if cur, busy := n.adds[k]; busy {
		return fmt.Errorf("roadm: %s channel %d on degree %s already terminated by %s", n.id, ch, deg, cur)
	}
	if n.AddDropFree() == 0 {
		return fmt.Errorf("roadm: %s add/drop bank exhausted (%d ports)", n.id, n.addDropTotal)
	}
	n.adds[k] = owner
	n.addDropUsed++
	n.byOwner[owner] = append(n.byOwner[owner], k)
	n.reconfigs++
	return nil
}

// Express configures a pass-through of channel ch from degree in to degree
// out (order-insensitive; the connection is bidirectional).
func (n *Node) Express(ch optics.Channel, in, out topo.LinkID, owner string) error {
	if owner == "" {
		return fmt.Errorf("roadm: empty owner at %s", n.id)
	}
	if !n.degrees[in] {
		return fmt.Errorf("roadm: node %s has no degree %s", n.id, in)
	}
	if !n.degrees[out] {
		return fmt.Errorf("roadm: node %s has no degree %s", n.id, out)
	}
	if in == out {
		return fmt.Errorf("roadm: express at %s cannot loop degree %s back", n.id, in)
	}
	k := canonExpr(ch, in, out)
	if cur, busy := n.expresses[k]; busy {
		return fmt.Errorf("roadm: %s channel %d between %s and %s already expressed by %s", n.id, ch, in, out, cur)
	}
	// The same channel cannot be both terminated and expressed on a
	// degree.
	for _, d := range []topo.LinkID{in, out} {
		if cur, busy := n.adds[termKey{ch, d}]; busy {
			return fmt.Errorf("roadm: %s channel %d on %s is terminated by %s", n.id, ch, d, cur)
		}
	}
	n.expresses[k] = owner
	n.byOwner[owner] = append(n.byOwner[owner], k)
	n.reconfigs++
	return nil
}

func canonExpr(ch optics.Channel, a, b topo.LinkID) exprKey {
	if b < a {
		a, b = b, a
	}
	return exprKey{ch, a, b}
}

// ReleaseOwner removes every termination and express belonging to owner and
// returns how many entries were released.
func (n *Node) ReleaseOwner(owner string) int {
	entries := n.byOwner[owner]
	for _, e := range entries {
		switch k := e.(type) {
		case termKey:
			delete(n.adds, k)
			n.addDropUsed--
		case exprKey:
			delete(n.expresses, k)
		}
		n.reconfigs++
	}
	delete(n.byOwner, owner)
	return len(entries)
}

// Owners returns every owner with state at this node, sorted.
func (n *Node) Owners() []string {
	out := make([]string, 0, len(n.byOwner))
	for o := range n.byOwner {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Layer is the set of ROADMs across the network.
type Layer struct {
	nodes map[topo.NodeID]*Node
}

// NewLayer builds a ROADM at every node of g with the given add/drop bank
// size.
func NewLayer(g *topo.Graph, addDropPorts int) (*Layer, error) {
	l := &Layer{nodes: make(map[topo.NodeID]*Node)}
	for _, n := range g.Nodes() {
		var degrees []topo.LinkID
		for _, lk := range g.LinksAt(n.ID) {
			degrees = append(degrees, lk.ID)
		}
		node, err := NewNode(n.ID, degrees, addDropPorts)
		if err != nil {
			return nil, err
		}
		l.nodes[n.ID] = node
	}
	return l, nil
}

// Node returns the ROADM at id, or nil.
func (l *Layer) Node(id topo.NodeID) *Node { return l.nodes[id] }

// ConfigureSegment programs one transparent segment of a lightpath: channel
// ch is terminated at the segment's first and last node and expressed through
// every intermediate one. It rolls back on failure so a half-configured
// segment never lingers. owner must be unique per segment (e.g. "C0001#seg0")
// so rollback cannot disturb the same connection's other segments at a shared
// regeneration node.
func (l *Layer) ConfigureSegment(nodes []topo.NodeID, links []topo.LinkID, ch optics.Channel, owner string) error {
	if len(nodes) < 2 || len(links) != len(nodes)-1 {
		return fmt.Errorf("roadm: malformed segment (%d nodes, %d links)", len(nodes), len(links))
	}
	done := 0
	fail := func(err error) error {
		for i := 0; i < done; i++ {
			l.nodes[nodes[i]].ReleaseOwner(owner)
		}
		return err
	}
	for i, nid := range nodes {
		node := l.nodes[nid]
		if node == nil {
			return fail(fmt.Errorf("roadm: unknown node %s", nid))
		}
		var err error
		switch i {
		case 0:
			err = node.Terminate(ch, links[0], owner)
		case len(nodes) - 1:
			err = node.Terminate(ch, links[len(links)-1], owner)
		default:
			err = node.Express(ch, links[i-1], links[i], owner)
		}
		if err != nil {
			return fail(err)
		}
		done++
	}
	return nil
}

// ReleaseSegment removes owner's state at every listed node.
func (l *Layer) ReleaseSegment(nodes []topo.NodeID, owner string) {
	for _, nid := range nodes {
		if n := l.nodes[nid]; n != nil {
			n.ReleaseOwner(owner)
		}
	}
}
