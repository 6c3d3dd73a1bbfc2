package alarms

import (
	"fmt"
	"sort"

	"griphon/internal/sim"
	"griphon/internal/topo"
)

// GroupKind classifies a correlation group's root event.
type GroupKind int

const (
	// GroupFiberCut is a localized fiber failure: one root event owning the
	// per-circuit children the cut produced.
	GroupFiberCut GroupKind = iota
	// GroupEquipment is a node-local equipment problem reported without an
	// affected connection. Equipment alarms never join a fiber-cut root: a
	// transponder failing at node X during an unrelated cut is its own event.
	GroupEquipment
	// GroupService covers connection alarms that localization could not pin
	// to a link (ambiguous or no suspects).
	GroupService
)

func (k GroupKind) String() string {
	switch k {
	case GroupFiberCut:
		return "fiber-cut"
	case GroupEquipment:
		return "equipment"
	case GroupService:
		return "service"
	}
	return fmt.Sprintf("GroupKind(%d)", int(k))
}

// Group is one correlated alarm group: a synthesized root event plus the raw
// per-element children it explains. One fiber cut produces exactly one
// fiber-cut group regardless of how many circuits alarmed.
type Group struct {
	// Seq is the group's position in the alarm log, assigned by Log.Append
	// (0 until appended). Seqs increase monotonically and survive ring
	// eviction, so they work as resume cursors.
	Seq  uint64
	At   sim.Time
	Kind GroupKind
	// Link names the suspected fiber for fiber-cut groups.
	Link topo.LinkID
	// Root is the synthesized root-cause event.
	Root Alarm
	// Children are the raw element alarms the root explains.
	Children []Alarm
}

// ForCustomer projects the group onto one customer's view: children owned by
// other tenants are hidden, and ok reports whether anything remains. An empty
// customer is the operator view and sees everything. Equipment groups carry no
// customer children and are operator-only.
func (g Group) ForCustomer(customer string) (Group, bool) {
	if customer == "" {
		return g, true
	}
	var kept []Alarm
	for _, a := range g.Children {
		if a.Customer == customer {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		return Group{}, false
	}
	out := g
	out.Children = kept
	return out, true
}

// GroupBatch correlates one flushed correlator batch into groups. Connection
// alarms form a single group: a fiber-cut group rooted on the top localization
// suspect when one exists, a service group otherwise. Connection-less
// equipment alarms are grouped per reporting node and are never parented
// under the fiber-cut root, even when both land in the same window.
func GroupBatch(at sim.Time, batch []Alarm, suspects []topo.LinkID) []Group {
	var connAlarms []Alarm
	equipByNode := map[topo.NodeID][]Alarm{}
	var nodeOrder []topo.NodeID
	for _, a := range batch {
		if a.Conn != "" {
			connAlarms = append(connAlarms, a)
			continue
		}
		if _, seen := equipByNode[a.Node]; !seen {
			nodeOrder = append(nodeOrder, a.Node)
		}
		equipByNode[a.Node] = append(equipByNode[a.Node], a)
	}

	var out []Group
	if len(connAlarms) > 0 {
		g := Group{At: at, Children: connAlarms}
		conns := map[string]bool{}
		for _, a := range connAlarms {
			conns[a.Conn] = true
		}
		if len(suspects) > 0 {
			g.Kind = GroupFiberCut
			g.Link = suspects[0]
			g.Root = Alarm{
				At:     at,
				Node:   connAlarms[0].Node,
				Type:   LOS,
				Detail: fmt.Sprintf("fiber cut suspected on %s (%d circuits affected)", g.Link, len(conns)),
			}
		} else {
			g.Kind = GroupService
			g.Root = Alarm{
				At:     at,
				Node:   connAlarms[0].Node,
				Type:   connAlarms[0].Type,
				Detail: fmt.Sprintf("service-affecting event, no link localized (%d circuits)", len(conns)),
			}
		}
		out = append(out, g)
	}
	for _, node := range nodeOrder {
		children := equipByNode[node]
		out = append(out, Group{
			At:   at,
			Kind: GroupEquipment,
			Root: Alarm{
				At:     at,
				Node:   node,
				Type:   EquipmentFail,
				Detail: fmt.Sprintf("equipment trouble at %s (%d alarms)", node, len(children)),
			},
			Children: children,
		})
	}
	return out
}

// Log is a bounded in-memory ring of correlation groups with monotonically
// increasing sequence numbers — the backing store for the customer alarm
// stream and its `since` cursor. Old groups are evicted once capacity is
// exceeded, but seqs keep counting, so a stale cursor simply skips the
// evicted span.
type Log struct {
	capacity int
	groups   []Group
	next     uint64
	dropped  uint64
}

// NewLog returns a log retaining at most capacity groups (minimum 1).
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{capacity: capacity, next: 1}
}

// Append stores the group, assigns its seq, and returns the stored value.
func (l *Log) Append(g Group) Group {
	g.Seq = l.next
	l.next++
	l.groups = append(l.groups, g)
	if len(l.groups) > l.capacity {
		evict := len(l.groups) - l.capacity
		l.dropped += uint64(evict)
		l.groups = append(l.groups[:0:0], l.groups[evict:]...)
	}
	return g
}

// GroupAndAppend correlates one batch and appends every resulting group,
// returning them with their assigned seqs.
func (l *Log) GroupAndAppend(at sim.Time, batch []Alarm, suspects []topo.LinkID) []Group {
	groups := GroupBatch(at, batch, suspects)
	for i, g := range groups {
		groups[i] = l.Append(g)
	}
	return groups
}

// Since returns retained groups with Seq > seq, oldest first. Since(0) returns
// everything retained.
func (l *Log) Since(seq uint64) []Group {
	i := sort.Search(len(l.groups), func(i int) bool { return l.groups[i].Seq > seq })
	return append([]Group(nil), l.groups[i:]...)
}

// NextSeq returns the seq the next appended group will get; callers can use
// NextSeq()-1 as a "caught up" cursor.
func (l *Log) NextSeq() uint64 { return l.next }

// Len returns the number of retained groups.
func (l *Log) Len() int { return len(l.groups) }
