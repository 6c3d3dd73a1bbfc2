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
	"strconv"

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

// Layout is an FXC model's port plan: its ports, and each role's port IDs in
// sorted order so that FreePort is a scan instead of a collect-and-sort. A
// layout is immutable once built, so every switch of one model shares it.
type Layout struct {
	ports  map[PortID]Port
	byRole map[PortRole][]PortID
}

// NewLayout builds the port plan for the given ports.
func NewLayout(ports []Port) (*Layout, error) {
	l := &Layout{
		ports:  make(map[PortID]Port, len(ports)),
		byRole: make(map[PortRole][]PortID),
	}
	for _, p := range ports {
		if p.ID == "" {
			return nil, fmt.Errorf("fxc: empty port ID")
		}
		if _, dup := l.ports[p.ID]; dup {
			return nil, fmt.Errorf("fxc: duplicate port %s", p.ID)
		}
		l.ports[p.ID] = p
		l.byRole[p.Role] = append(l.byRole[p.Role], p.ID)
	}
	for _, ids := range l.byRole {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return l, nil
}

// StandardLayout is the FXC used at every GRIPhoN PoP: nClient client ports,
// nLine transponder-facing ports and nGroom OTN-facing ports, with
// predictable IDs (C0.., L0.., G0..).
func StandardLayout(nClient, nLine, nGroom int) *Layout {
	ports := make([]Port, 0, nClient+nLine+nGroom)
	for _, bank := range []struct {
		prefix string
		n      int
		role   PortRole
	}{{"C", nClient, Client}, {"L", nLine, Line}, {"G", nGroom, Groom}} {
		for i := 0; i < bank.n; i++ {
			ports = append(ports, Port{ID: PortID(bank.prefix + strconv.Itoa(i)), Role: bank.role})
		}
	}
	l, err := NewLayout(ports)
	if err != nil {
		panic(err) // unreachable: generated IDs are unique and non-empty
	}
	return l
}

// Switch returns a fiber cross-connect with this layout at the given node,
// with every port free.
func (l *Layout) Switch(node topo.NodeID) *Switch {
	return &Switch{
		layout: l,
		node:   node,
		peer:   make(map[PortID]PortID),
		owner:  make(map[PortID]string),
	}
}

// Switch is one fiber cross-connect. Connections are bidirectional
// one-to-one port mappings. The zero value is unusable; use Layout.Switch.
type Switch struct {
	layout *Layout
	node   topo.NodeID
	peer   map[PortID]PortID
	owner  map[PortID]string
}

// Connect maps ports a and b to each other on behalf of owner. Both ports
// must exist, be free, and have different roles: a client-to-client
// cross-connect would bypass the carrier network entirely and is rejected.
func (s *Switch) Connect(a, b PortID, owner string) error {
	if owner == "" {
		return fmt.Errorf("fxc: empty owner")
	}
	pa, ok := s.layout.ports[a]
	if !ok {
		return fmt.Errorf("fxc: unknown port %s at %s", a, s.node)
	}
	pb, ok := s.layout.ports[b]
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
	for _, id := range s.layout.byRole[role] {
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
