package roadm

import (
	"testing"
	"testing/quick"

	"griphon/internal/optics"
	"griphon/internal/topo"
)

func node3(t *testing.T, ports int) *Node {
	t.Helper()
	n, err := NewNode("I", []topo.LinkID{"I-II", "I-III", "I-IV"}, ports)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode("I", nil, 4); err == nil {
		t.Error("degreeless node accepted")
	}
	if _, err := NewNode("I", []topo.LinkID{"a"}, 0); err == nil {
		t.Error("zero add/drop accepted")
	}
	if _, err := NewNode("I", []topo.LinkID{"a", "a"}, 4); err == nil {
		t.Error("duplicate degree accepted")
	}
}

func TestTerminate(t *testing.T) {
	n := node3(t, 2)
	if len(n.degrees) != 3 {
		t.Errorf("degree = %d", len(n.degrees))
	}
	if err := n.Terminate(1, "I-IV", "c1"); err != nil {
		t.Fatal(err)
	}
	if n.AddDropUsed() != 1 || n.AddDropFree() != 1 {
		t.Errorf("ports: used=%d free=%d", n.AddDropUsed(), n.AddDropFree())
	}
	if n.adds[termKey{1, "I-IV"}] != "c1" {
		t.Errorf("owner = %q", n.adds[termKey{1, "I-IV"}])
	}
	// Same channel+degree conflicts; same channel on another degree fine.
	if err := n.Terminate(1, "I-IV", "c2"); err == nil {
		t.Error("conflicting termination accepted")
	}
	if err := n.Terminate(1, "I-III", "c2"); err != nil {
		t.Errorf("distinct-degree termination rejected: %v", err)
	}
	// Bank exhausted.
	if err := n.Terminate(2, "I-II", "c3"); err == nil {
		t.Error("termination beyond the add/drop bank accepted")
	}
	// Validation.
	if err := n.Terminate(3, "nope", "c4"); err == nil {
		t.Error("unknown degree accepted")
	}
	if err := n.Terminate(3, "I-II", ""); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestExpress(t *testing.T) {
	n := node3(t, 4)
	if err := n.Express(5, "I-II", "I-III", "c1"); err != nil {
		t.Fatal(err)
	}
	// Order-insensitive lookup and conflict.
	if n.expresses[canonExpr(5, "I-III", "I-II")] != "c1" {
		t.Error("express lookup not symmetric")
	}
	if err := n.Express(5, "I-III", "I-II", "c2"); err == nil {
		t.Error("conflicting express accepted")
	}
	// Same channel different degree pair is fine.
	if err := n.Express(5, "I-II", "I-IV", "c2"); err != nil {
		t.Errorf("distinct pair rejected: %v", err)
	}
	// Express does not consume add/drop ports.
	if n.AddDropUsed() != 0 {
		t.Error("express consumed add/drop ports")
	}
	// Validation.
	if err := n.Express(5, "I-II", "I-II", "c3"); err == nil {
		t.Error("loopback express accepted")
	}
	if err := n.Express(5, "nope", "I-II", "c3"); err == nil {
		t.Error("unknown in-degree accepted")
	}
	if err := n.Express(5, "I-II", "nope", "c3"); err == nil {
		t.Error("unknown out-degree accepted")
	}
	if err := n.Express(5, "I-II", "I-III", ""); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestTerminateExpressConflict(t *testing.T) {
	n := node3(t, 4)
	n.Terminate(7, "I-II", "c1")
	if err := n.Express(7, "I-II", "I-III", "c2"); err == nil {
		t.Error("express over a terminated channel/degree accepted")
	}
}

func TestReleaseOwner(t *testing.T) {
	n := node3(t, 4)
	n.Terminate(1, "I-II", "c1")
	n.Terminate(2, "I-III", "c1")
	n.Express(3, "I-II", "I-IV", "c1")
	n.Terminate(4, "I-IV", "c2")
	if got := n.ReleaseOwner("c1"); got != 3 {
		t.Errorf("released %d entries, want 3", got)
	}
	if n.AddDropUsed() != 1 {
		t.Errorf("ports used after release = %d, want 1 (c2)", n.AddDropUsed())
	}
	if n.adds[termKey{4, "I-IV"}] != "c2" {
		t.Error("release disturbed another owner")
	}
	if got := n.ReleaseOwner("c1"); got != 0 {
		t.Errorf("double release freed %d", got)
	}
	owners := n.Owners()
	if len(owners) != 1 || owners[0] != "c2" {
		t.Errorf("owners = %v", owners)
	}
}

func TestLayerConfigureSegment(t *testing.T) {
	g := topo.Testbed()
	l, err := NewLayer(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []topo.NodeID{"I", "II", "III", "IV"}
	links := []topo.LinkID{"I-II", "II-III", "III-IV"}
	if err := l.ConfigureSegment(nodes, links, 1, "c1#seg0"); err != nil {
		t.Fatal(err)
	}
	if l.Node("I").AddDropUsed() != 1 || l.Node("IV").AddDropUsed() != 1 {
		t.Error("terminations missing at segment ends")
	}
	if l.Node("II").AddDropUsed() != 0 {
		t.Error("intermediate consumed an add/drop port")
	}
	if l.Node("II").expresses[canonExpr(1, "I-II", "II-III")] != "c1#seg0" {
		t.Error("express missing at II")
	}
	if got := l.Node("I").reconfigs + l.Node("II").reconfigs + l.Node("III").reconfigs + l.Node("IV").reconfigs; got != 4 {
		t.Errorf("reconfigs = %d, want 4", got)
	}
	l.ReleaseSegment(nodes, "c1#seg0")
	if l.Node("I").AddDropUsed() != 0 || l.Node("II").expresses[canonExpr(1, "I-II", "II-III")] != "" {
		t.Error("release incomplete")
	}
}

func TestLayerConfigureSegmentRollsBack(t *testing.T) {
	g := topo.Testbed()
	l, err := NewLayer(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust IV's single port so the segment fails at its last node.
	l.Node("IV").Terminate(9, "III-IV", "hog")
	nodes := []topo.NodeID{"I", "III", "IV"}
	links := []topo.LinkID{"I-III", "III-IV"}
	if err := l.ConfigureSegment(nodes, links, 9, "c1#seg0"); err == nil {
		t.Fatal("segment over a full bank accepted")
	}
	// I and III must have been rolled back.
	if l.Node("I").AddDropUsed() != 0 {
		t.Error("rollback left a termination at I")
	}
	if len(l.Node("III").Owners()) != 0 {
		t.Error("rollback left state at III")
	}
}

func TestLayerConfigureSegmentValidation(t *testing.T) {
	g := topo.Testbed()
	l, _ := NewLayer(g, 8)
	if err := l.ConfigureSegment([]topo.NodeID{"I"}, nil, 1, "x"); err == nil {
		t.Error("single-node segment accepted")
	}
	if err := l.ConfigureSegment([]topo.NodeID{"I", "Z"}, []topo.LinkID{"I-IV"}, 1, "x"); err == nil {
		t.Error("unknown node accepted")
	}
}

// Property: any sequence of terminate/express/release keeps the add/drop
// count equal to the number of live terminations.
func TestPortAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		n, _ := NewNode("N", []topo.LinkID{"a", "b", "c"}, 6)
		degs := []topo.LinkID{"a", "b", "c"}
		owners := []string{"x", "y", "z"}
		live := map[string]int{}
		for _, op := range ops {
			owner := owners[op%3]
			ch := optics.Channel(op%5 + 1)
			switch (op / 16) % 3 {
			case 0:
				if n.Terminate(ch, degs[op%3], owner) == nil {
					live[owner]++
				}
			case 1:
				n.Express(ch, degs[op%3], degs[(op+1)%3], owner) //lint:allow errcheck may conflict
			case 2:
				n.ReleaseOwner(owner)
				live[owner] = 0
			}
			total := 0
			for _, v := range live {
				total += v
			}
			if n.AddDropUsed() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
