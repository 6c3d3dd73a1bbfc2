package alarms

import (
	"testing"
	"time"

	"griphon/internal/sim"
	"griphon/internal/topo"
)

func at(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }

func TestGroupBatchFiberCut(t *testing.T) {
	batch := []Alarm{
		{At: at(time.Second), Node: "I", Conn: "c1", Customer: "acme", Type: LOS},
		{At: at(time.Second), Node: "III", Conn: "c1", Customer: "acme", Type: LOS},
		{At: at(time.Second), Node: "I", Conn: "c2", Customer: "bob", Type: LOS},
	}
	groups := GroupBatch(at(2*time.Second), batch, []topo.LinkID{"I-III"})
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.Kind != GroupFiberCut || g.Link != "I-III" {
		t.Errorf("kind=%v link=%s", g.Kind, g.Link)
	}
	if len(g.Children) != 3 {
		t.Errorf("children = %d", len(g.Children))
	}
}

// Connection-less equipment alarms landing in the same correlation window as
// a fiber cut must NOT be parented under the fiber-cut root: a transponder
// failing at an unrelated node is its own event.
func TestGroupBatchEquipmentNotUnderFiberCutRoot(t *testing.T) {
	batch := []Alarm{
		{At: at(time.Second), Node: "I", Conn: "c1", Customer: "acme", Type: LOS},
		{At: at(time.Second), Node: "IV", Conn: "", Type: EquipmentFail, Detail: "transponder fail"},
		{At: at(time.Second), Node: "IV", Conn: "", Type: EquipmentFail, Detail: "regen fail"},
		{At: at(time.Second), Node: "II", Conn: "", Type: EquipmentFail, Detail: "fan tray"},
	}
	groups := GroupBatch(at(2*time.Second), batch, []topo.LinkID{"I-III"})
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (one cut + two equipment nodes)", len(groups))
	}
	cut := groups[0]
	if cut.Kind != GroupFiberCut || len(cut.Children) != 1 {
		t.Fatalf("cut group = kind %v with %d children, want fiber-cut with only the conn alarm", cut.Kind, len(cut.Children))
	}
	for _, c := range cut.Children {
		if c.Conn == "" {
			t.Error("equipment alarm grouped under fiber-cut root")
		}
	}
	seen := map[topo.NodeID]int{}
	for _, g := range groups[1:] {
		if g.Kind != GroupEquipment {
			t.Errorf("kind = %v, want equipment", g.Kind)
		}
		if g.Link != "" {
			t.Errorf("equipment group inherited link %s", g.Link)
		}
		seen[g.Root.Node] = len(g.Children)
	}
	if seen["IV"] != 2 || seen["II"] != 1 {
		t.Errorf("equipment grouping by node = %v", seen)
	}
}

func TestGroupBatchServiceWhenNoSuspects(t *testing.T) {
	batch := []Alarm{
		{At: at(time.Second), Node: "I", Conn: "c1", Customer: "acme", Type: LOF},
	}
	groups := GroupBatch(at(2*time.Second), batch, nil)
	if len(groups) != 1 || groups[0].Kind != GroupService {
		t.Fatalf("groups = %+v, want one service group", groups)
	}
	if groups[0].Link != "" {
		t.Error("service group has a link")
	}
}

func TestGroupForCustomer(t *testing.T) {
	g := Group{
		Kind: GroupFiberCut,
		Children: []Alarm{
			{Conn: "c1", Customer: "acme"},
			{Conn: "c2", Customer: "bob"},
		},
	}
	acme, ok := g.ForCustomer("acme")
	if !ok || len(acme.Children) != 1 || acme.Children[0].Customer != "acme" {
		t.Errorf("acme view = %+v ok=%v", acme, ok)
	}
	if _, ok := g.ForCustomer("carol"); ok {
		t.Error("unaffected customer sees the group")
	}
	op, ok := g.ForCustomer("")
	if !ok || len(op.Children) != 2 {
		t.Error("operator view filtered")
	}
	// Equipment groups have no customer children: operator-only.
	eq := Group{Kind: GroupEquipment, Children: []Alarm{{Node: "I", Type: EquipmentFail}}}
	if _, ok := eq.ForCustomer("acme"); ok {
		t.Error("equipment group visible to a customer")
	}
}

func TestLogSeqAndEviction(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 4; i++ {
		g := l.Append(Group{Kind: GroupService})
		if g.Seq != uint64(i+1) {
			t.Errorf("seq = %d, want %d", g.Seq, i+1)
		}
	}
	if l.Len() != 2 || l.dropped != 2 {
		t.Errorf("len=%d dropped=%d", l.Len(), l.dropped)
	}
	all := l.Since(0)
	if len(all) != 2 || all[0].Seq != 3 || all[1].Seq != 4 {
		t.Errorf("Since(0) = %+v", all)
	}
	if got := l.Since(3); len(got) != 1 || got[0].Seq != 4 {
		t.Errorf("Since(3) = %+v", got)
	}
	if got := l.Since(4); len(got) != 0 {
		t.Errorf("Since(4) = %+v", got)
	}
	if l.NextSeq() != 5 {
		t.Errorf("NextSeq = %d", l.NextSeq())
	}
	if NewLog(0).capacity != 1 {
		t.Error("capacity floor")
	}
}

func TestGroupKindStrings(t *testing.T) {
	if GroupFiberCut.String() != "fiber-cut" || GroupEquipment.String() != "equipment" || GroupService.String() != "service" {
		t.Error("kind strings")
	}
	if GroupKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}
