package otn

import (
	"fmt"
	"sort"

	"griphon/internal/topo"
)

// PipeID identifies an OTN line pipe.
type PipeID string

// Pipe is an OTN line between two OTN switches, itself carried over a DWDM
// wavelength connection (the package does not know which one; the controller
// records that association). Its tributary slots are the groomable capacity.
//
// A pipe also books shared-mesh restoration reservations: backup circuits
// register how many slots they would need if activated. Shared reservations
// deliberately oversubscribe the free pool — that is the entire cost
// advantage of shared-mesh over 1+1 — so activation can fail under
// correlated failures.
type Pipe struct {
	id     PipeID
	a, b   topo.NodeID
	level  Level
	slots  []string       // owner per tributary slot, "" = free
	shared map[string]int // backup owner -> slots needed on activation
	up     bool
}

// NewPipe creates an operational pipe of the given level between a and b.
func NewPipe(id PipeID, a, b topo.NodeID, level Level) (*Pipe, error) {
	if id == "" {
		return nil, fmt.Errorf("otn: empty pipe ID")
	}
	if a == b {
		return nil, fmt.Errorf("otn: pipe %s is a self-loop at %s", id, a)
	}
	if level != ODU2 && level != ODU3 {
		return nil, fmt.Errorf("otn: pipe level must be ODU2 or ODU3, got %v", level)
	}
	return &Pipe{
		id: id, a: a, b: b, level: level,
		slots:  make([]string, level.Slots()),
		shared: make(map[string]int),
		up:     true,
	}, nil
}

// ID returns the pipe's identifier.
func (p *Pipe) ID() PipeID { return p.id }

// Ends returns the two OTN switches the pipe joins.
func (p *Pipe) Ends() (topo.NodeID, topo.NodeID) { return p.a, p.b }

// Other returns the far end from n; it panics if n is not an endpoint.
func (p *Pipe) Other(n topo.NodeID) topo.NodeID {
	switch n {
	case p.a:
		return p.b
	case p.b:
		return p.a
	}
	panic(fmt.Sprintf("otn: %s is not an endpoint of pipe %s", n, p.id))
}

// Level returns the pipe's ODU level.
func (p *Pipe) Level() Level { return p.level }

// Up reports whether the pipe is operational.
func (p *Pipe) Up() bool { return p.up }

// SetUp marks the pipe operational or failed (e.g. when the wavelength under
// it dies).
func (p *Pipe) SetUp(up bool) { p.up = up }

// TotalSlots returns the pipe's tributary slot count.
func (p *Pipe) TotalSlots() int { return len(p.slots) }

// FreeSlots returns the number of unallocated tributary slots.
func (p *Pipe) FreeSlots() int {
	n := 0
	for _, o := range p.slots {
		if o == "" {
			n++
		}
	}
	return n
}

// UsedSlots returns the number of allocated tributary slots.
func (p *Pipe) UsedSlots() int { return p.TotalSlots() - p.FreeSlots() }

// SlotsOf returns the slot indices owned by owner, ascending.
func (p *Pipe) SlotsOf(owner string) []int {
	var out []int
	for i, o := range p.slots {
		if o == owner && owner != "" {
			out = append(out, i)
		}
	}
	return out
}

// Reserve allocates n tributary slots to owner and returns their indices
// (lowest free first). It fails — without partial allocation — if fewer than
// n slots are free or the pipe is down.
func (p *Pipe) Reserve(owner string, n int) ([]int, error) {
	if owner == "" {
		return nil, fmt.Errorf("otn: empty owner")
	}
	if n <= 0 {
		return nil, fmt.Errorf("otn: non-positive slot count %d", n)
	}
	if !p.up {
		return nil, fmt.Errorf("otn: pipe %s is down", p.id)
	}
	if p.FreeSlots() < n {
		return nil, fmt.Errorf("otn: pipe %s has %d free slots, need %d", p.id, p.FreeSlots(), n)
	}
	var idx []int
	for i := range p.slots {
		if p.slots[i] == "" {
			p.slots[i] = owner
			idx = append(idx, i)
			if len(idx) == n {
				break
			}
		}
	}
	return idx, nil
}

// ReleaseOwner frees every slot held by owner and returns how many were
// freed. Releasing an owner with no slots is an error.
func (p *Pipe) ReleaseOwner(owner string) (int, error) {
	if owner == "" {
		return 0, fmt.Errorf("otn: empty owner")
	}
	n := 0
	for i, o := range p.slots {
		if o == owner {
			p.slots[i] = ""
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("otn: owner %s holds no slots on pipe %s", owner, p.id)
	}
	return n, nil
}

// ReleaseSlots frees exactly n of owner's slots (highest indices first),
// used when a circuit's rate is adjusted downward. It fails — without
// change — if owner holds fewer than n.
func (p *Pipe) ReleaseSlots(owner string, n int) error {
	if n <= 0 {
		return fmt.Errorf("otn: non-positive release count %d", n)
	}
	held := p.SlotsOf(owner)
	if len(held) < n {
		return fmt.Errorf("otn: owner %s holds %d slots on %s, cannot release %d", owner, len(held), p.id, n)
	}
	for i := 0; i < n; i++ {
		p.slots[held[len(held)-1-i]] = ""
	}
	return nil
}

// ReserveShared registers a shared-mesh restoration reservation: owner will
// need n slots if its backup is ever activated. Reservations may collectively
// exceed the free pool.
func (p *Pipe) ReserveShared(owner string, n int) error {
	if owner == "" {
		return fmt.Errorf("otn: empty owner")
	}
	if n <= 0 {
		return fmt.Errorf("otn: non-positive shared slot count %d", n)
	}
	if _, dup := p.shared[owner]; dup {
		return fmt.Errorf("otn: owner %s already holds a shared reservation on %s", owner, p.id)
	}
	p.shared[owner] = n
	return nil
}

// ReleaseShared drops owner's shared reservation.
func (p *Pipe) ReleaseShared(owner string) error {
	if _, ok := p.shared[owner]; !ok {
		return fmt.Errorf("otn: owner %s has no shared reservation on %s", p.id, owner)
	}
	delete(p.shared, owner)
	return nil
}

// RestorePipe reconstructs a journaled pipe: identity, level and operational
// flag. Slot occupancy is not part of the pipe record — recovery re-reserves
// slots from the committed connection records, the authoritative ownership
// statement.
func RestorePipe(id PipeID, a, b topo.NodeID, level Level, up bool) (*Pipe, error) {
	p, err := NewPipe(id, a, b, level)
	if err != nil {
		return nil, err
	}
	p.up = up
	return p, nil
}

// Owners returns the distinct owners holding tributary slots, sorted — the
// enumeration invariant auditors sweep.
func (p *Pipe) Owners() []string {
	set := map[string]bool{}
	for _, o := range p.slots {
		if o != "" {
			set[o] = true
		}
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// SharedOwners returns owners with shared reservations, sorted.
func (p *Pipe) SharedOwners() []string {
	out := make([]string, 0, len(p.shared))
	for o := range p.shared {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Activate converts owner's shared reservation into a real slot allocation,
// returning the slot indices. It fails if the reservation does not exist or
// the free pool cannot satisfy it right now (restoration blocking).
func (p *Pipe) Activate(owner string) ([]int, error) {
	n, ok := p.shared[owner]
	if !ok {
		return nil, fmt.Errorf("otn: owner %s has no shared reservation on %s", owner, p.id)
	}
	idx, err := p.Reserve(owner, n)
	if err != nil {
		return nil, fmt.Errorf("otn: activating %s on %s: %w", owner, p.id, err)
	}
	delete(p.shared, owner)
	return idx, nil
}
