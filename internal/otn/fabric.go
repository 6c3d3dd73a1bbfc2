package otn

import (
	"fmt"
	"sort"

	"griphon/internal/topo"
)

// Fabric is the OTN overlay: the set of OTN switches and the line pipes
// joining them. It is a multigraph — several pipes (wavelengths) may run
// between the same switch pair — that grows and shrinks as the controller
// lights and retires wavelengths.
type Fabric struct {
	switches map[topo.NodeID]bool
	pipes    map[PipeID]*Pipe
	adj      map[topo.NodeID][]*Pipe
	nextID   int
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		switches: make(map[topo.NodeID]bool),
		pipes:    make(map[PipeID]*Pipe),
		adj:      make(map[topo.NodeID][]*Pipe),
	}
}

// FabricFrom builds a fabric with a switch at every node of g that has one
// (Node.HasOTN), and no pipes.
func FabricFrom(g *topo.Graph) *Fabric {
	f := NewFabric()
	for _, n := range g.Nodes() {
		if n.HasOTN {
			f.AddSwitch(n.ID)
		}
	}
	return f
}

// AddSwitch registers an OTN switch at node. Adding one twice is harmless.
func (f *Fabric) AddSwitch(node topo.NodeID) { f.switches[node] = true }

// HasSwitch reports whether node hosts an OTN switch.
func (f *Fabric) HasSwitch(node topo.NodeID) bool { return f.switches[node] }

// AddPipe creates a new pipe between two switches and returns it. The ID is
// generated; both endpoints must host switches.
func (f *Fabric) AddPipe(a, b topo.NodeID, level Level) (*Pipe, error) {
	if !f.switches[a] {
		return nil, fmt.Errorf("otn: no OTN switch at %s", a)
	}
	if !f.switches[b] {
		return nil, fmt.Errorf("otn: no OTN switch at %s", b)
	}
	id := PipeID(fmt.Sprintf("P%03d:%s-%s", f.nextID, a, b))
	f.nextID++
	p, err := NewPipe(id, a, b, level)
	if err != nil {
		return nil, err
	}
	f.pipes[id] = p
	f.adj[a] = append(f.adj[a], p)
	f.adj[b] = append(f.adj[b], p)
	return p, nil
}

// RestorePipe registers a pipe rebuilt from the journal under its original
// ID, bypassing ID generation. Both endpoints must host switches and the ID
// must be unused.
func (f *Fabric) RestorePipe(p *Pipe) error {
	if p == nil {
		return fmt.Errorf("otn: restoring nil pipe")
	}
	if !f.switches[p.a] {
		return fmt.Errorf("otn: no OTN switch at %s", p.a)
	}
	if !f.switches[p.b] {
		return fmt.Errorf("otn: no OTN switch at %s", p.b)
	}
	if _, dup := f.pipes[p.id]; dup {
		return fmt.Errorf("otn: pipe %s already exists", p.id)
	}
	f.pipes[p.id] = p
	f.adj[p.a] = append(f.adj[p.a], p)
	f.adj[p.b] = append(f.adj[p.b], p)
	return nil
}

// NextID returns the pipe ID generation counter.
func (f *Fabric) NextID() int { return f.nextID }

// SetNextID fast-forwards the ID generation counter during recovery so new
// pipes never collide with journaled ones.
func (f *Fabric) SetNextID(n int) {
	if n > f.nextID {
		f.nextID = n
	}
}

// RemovePipe retires a pipe. It fails if the pipe still carries circuits or
// shared reservations — retiring live capacity would silently drop traffic.
func (f *Fabric) RemovePipe(id PipeID) error {
	p, ok := f.pipes[id]
	if !ok {
		return fmt.Errorf("otn: unknown pipe %s", id)
	}
	if p.UsedSlots() > 0 {
		return fmt.Errorf("otn: pipe %s still carries %d slots", id, p.UsedSlots())
	}
	if len(p.shared) > 0 {
		return fmt.Errorf("otn: pipe %s still holds shared reservations", id)
	}
	delete(f.pipes, id)
	f.adj[p.a] = removePipe(f.adj[p.a], p)
	f.adj[p.b] = removePipe(f.adj[p.b], p)
	return nil
}

func removePipe(ps []*Pipe, p *Pipe) []*Pipe {
	for i, q := range ps {
		if q == p {
			return append(ps[:i], ps[i+1:]...)
		}
	}
	return ps
}

// Pipe returns the pipe with the given ID, or nil.
func (f *Fabric) Pipe(id PipeID) *Pipe { return f.pipes[id] }

// Pipes returns all pipes sorted by ID.
func (f *Fabric) Pipes() []*Pipe {
	out := make([]*Pipe, 0, len(f.pipes))
	for _, p := range f.pipes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// PipesAt returns the pipes at node, sorted by ID.
func (f *Fabric) PipesAt(node topo.NodeID) []*Pipe {
	out := append([]*Pipe(nil), f.adj[node]...)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// FindPath returns the pipe sequence of a shortest (fewest pipes) usable path
// from src to dst: every pipe up, not in avoid, and with at least slots free
// slots. BFS with sorted adjacency keeps results deterministic.
func (f *Fabric) FindPath(src, dst topo.NodeID, slots int, avoid map[PipeID]bool) ([]*Pipe, error) {
	if !f.switches[src] {
		return nil, fmt.Errorf("otn: no OTN switch at %s", src)
	}
	if !f.switches[dst] {
		return nil, fmt.Errorf("otn: no OTN switch at %s", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("otn: source equals destination %s", src)
	}
	type hop struct {
		node topo.NodeID
		via  *Pipe
		prev *hop
	}
	seen := map[topo.NodeID]bool{src: true}
	queue := []*hop{{node: src}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node == dst {
			var pipes []*Pipe
			for x := h; x.via != nil; x = x.prev {
				pipes = append(pipes, x.via)
			}
			// Reverse into src->dst order.
			for i, j := 0, len(pipes)-1; i < j; i, j = i+1, j-1 {
				pipes[i], pipes[j] = pipes[j], pipes[i]
			}
			return pipes, nil
		}
		for _, p := range f.PipesAt(h.node) {
			if avoid[p.id] || !p.up || p.FreeSlots() < slots {
				continue
			}
			o := p.Other(h.node)
			if seen[o] {
				continue
			}
			seen[o] = true
			queue = append(queue, &hop{node: o, via: p, prev: h})
		}
	}
	return nil, fmt.Errorf("otn: no OTN path %s->%s with %d free slots", src, dst, slots)
}

// ReservePath reserves n slots for owner on every pipe in the path,
// atomically: on any failure it rolls back the slots already taken.
func ReservePath(pipes []*Pipe, owner string, n int) error {
	for i, p := range pipes {
		if _, err := p.Reserve(owner, n); err != nil {
			for _, q := range pipes[:i] {
				q.ReleaseOwner(owner) //lint:allow errcheck rollback of our own reservation
			}
			return err
		}
	}
	return nil
}

// ReleasePath frees owner's slots on every pipe in the path. It returns the
// first error but keeps releasing (a half-released circuit must not leak the
// rest).
func ReleasePath(pipes []*Pipe, owner string) error {
	var first error
	for _, p := range pipes {
		if _, err := p.ReleaseOwner(owner); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReserveSharedPath books shared-mesh reservations for owner on every pipe,
// rolling back on failure.
func ReserveSharedPath(pipes []*Pipe, owner string, n int) error {
	for i, p := range pipes {
		if err := p.ReserveShared(owner, n); err != nil {
			for _, q := range pipes[:i] {
				q.ReleaseShared(owner) //lint:allow errcheck rollback
			}
			return err
		}
	}
	return nil
}

// ActivatePath converts owner's shared reservations into real slots on every
// pipe, rolling back fully on failure so a blocked restoration leaves the
// shared pool untouched.
func ActivatePath(pipes []*Pipe, owner string) error {
	need := make([]int, len(pipes))
	for i, p := range pipes {
		n, ok := p.shared[owner]
		if !ok {
			// Roll back activations done so far, restoring reservations.
			for j := 0; j < i; j++ {
				pipes[j].ReleaseOwner(owner) //lint:allow errcheck rollback
				pipes[j].ReserveShared(owner, need[j])
			}
			return fmt.Errorf("otn: owner %s has no shared reservation on %s", owner, p.id)
		}
		need[i] = n
		if _, err := p.Activate(owner); err != nil {
			for j := 0; j < i; j++ {
				pipes[j].ReleaseOwner(owner) //lint:allow errcheck rollback
				pipes[j].ReserveShared(owner, need[j])
			}
			return err
		}
	}
	return nil
}
