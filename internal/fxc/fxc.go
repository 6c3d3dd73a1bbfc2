// Package fxc models the client-side fiber cross-connect of paper §2.2: a
// low-cost, low-power photonic patch panel that steers a customer signal
// either directly to an optical transponder (full-wavelength service on the
// DWDM layer) or into an OTN switch port (sub-wavelength service). An FXC
// cannot groom traffic — it only maps ports one-to-one — which is exactly why
// the OTN layer exists.
package fxc

import (
	"fmt"
	"sort"

	"griphon/internal/topo"
)

// PortRole classifies what a port faces.
type PortRole int

const (
	// Client ports face the customer's NTE / access pipe.
	Client PortRole = iota
	// Line ports face optical transponders (DWDM layer).
	Line
	// Groom ports face the co-located OTN switch.
	Groom
)

func (r PortRole) String() string {
	switch r {
	case Client:
		return "client"
	case Line:
		return "line"
	case Groom:
		return "groom"
	}
	return fmt.Sprintf("PortRole(%d)", int(r))
}

// PortID identifies a port on one FXC.
type PortID string

// Port is a physical FXC port.
type Port struct {
	ID   PortID
	Role PortRole
}

// Switch is one fiber cross-connect. Connections are bidirectional
// one-to-one port mappings. The zero value is unusable; use New.
type Switch struct {
	node  topo.NodeID
	ports map[PortID]Port
	peer  map[PortID]PortID
	owner map[PortID]string
	// byRole holds each role's port IDs in sorted order, fixed at
	// construction, so FreePort is a scan instead of a collect-and-sort.
	byRole map[PortRole][]PortID
}

// New creates an FXC at the given node with the given ports.
func New(node topo.NodeID, ports []Port) (*Switch, error) {
	s := &Switch{
		node:   node,
		ports:  make(map[PortID]Port, len(ports)),
		peer:   make(map[PortID]PortID),
		owner:  make(map[PortID]string),
		byRole: make(map[PortRole][]PortID),
	}
	for _, p := range ports {
		if p.ID == "" {
			return nil, fmt.Errorf("fxc: empty port ID at %s", node)
		}
		if _, dup := s.ports[p.ID]; dup {
			return nil, fmt.Errorf("fxc: duplicate port %s at %s", p.ID, node)
		}
		s.ports[p.ID] = p
		s.byRole[p.Role] = append(s.byRole[p.Role], p.ID)
	}
	for _, ids := range s.byRole {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return s, nil
}

// Standard builds the FXC used at every GRIPhoN PoP: nClient client ports,
// nLine transponder-facing ports and nGroom OTN-facing ports, with
// predictable IDs (C0.., L0.., G0..).
func Standard(node topo.NodeID, nClient, nLine, nGroom int) *Switch {
	var ports []Port
	for i := 0; i < nClient; i++ {
		ports = append(ports, Port{ID: PortID(fmt.Sprintf("C%d", i)), Role: Client})
	}
	for i := 0; i < nLine; i++ {
		ports = append(ports, Port{ID: PortID(fmt.Sprintf("L%d", i)), Role: Line})
	}
	for i := 0; i < nGroom; i++ {
		ports = append(ports, Port{ID: PortID(fmt.Sprintf("G%d", i)), Role: Groom})
	}
	s, err := New(node, ports)
	if err != nil {
		panic(err) // unreachable: generated IDs are unique and non-empty
	}
	return s
}

// Connect maps ports a and b to each other on behalf of owner. Both ports
// must exist, be free, and have different roles: a client-to-client
// cross-connect would bypass the carrier network entirely and is rejected.
func (s *Switch) Connect(a, b PortID, owner string) error {
	if owner == "" {
		return fmt.Errorf("fxc: empty owner")
	}
	pa, ok := s.ports[a]
	if !ok {
		return fmt.Errorf("fxc: unknown port %s at %s", a, s.node)
	}
	pb, ok := s.ports[b]
	if !ok {
		return fmt.Errorf("fxc: unknown port %s at %s", b, s.node)
	}
	if a == b {
		return fmt.Errorf("fxc: cannot connect port %s to itself", a)
	}
	if pa.Role == Client && pb.Role == Client {
		return fmt.Errorf("fxc: client-to-client cross-connect %s-%s rejected", a, b)
	}
	if _, busy := s.peer[a]; busy {
		return fmt.Errorf("fxc: port %s already connected", a)
	}
	if _, busy := s.peer[b]; busy {
		return fmt.Errorf("fxc: port %s already connected", b)
	}
	s.peer[a], s.peer[b] = b, a
	s.owner[a], s.owner[b] = owner, owner
	return nil
}

// Disconnect removes the mapping involving port p (either end may be named).
func (s *Switch) Disconnect(p PortID) error {
	q, ok := s.peer[p]
	if !ok {
		return fmt.Errorf("fxc: port %s is not connected", p)
	}
	delete(s.peer, p)
	delete(s.peer, q)
	delete(s.owner, p)
	delete(s.owner, q)
	return nil
}

// FreePort returns the lowest-ID free port with the given role, or an error
// when the bank of that role is exhausted.
func (s *Switch) FreePort(role PortRole) (PortID, error) {
	for _, id := range s.byRole[role] {
		if _, busy := s.peer[id]; !busy {
			return id, nil
		}
	}
	return "", fmt.Errorf("fxc: no free %v port at %s", role, s.node)
}

// Owners returns the distinct owners of active cross-connects, sorted —
// the enumeration invariant auditors sweep.
func (s *Switch) Owners() []string {
	set := map[string]bool{}
	for _, o := range s.owner {
		set[o] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
