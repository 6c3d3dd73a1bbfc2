package planner

import (
	"math"
	"testing"
	"testing/quick"

	"griphon/internal/topo"
)

func TestErlangBKnownValues(t *testing.T) {
	cases := []struct {
		n    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{2, 2, 0.4},
		{5, 3, 0.1101}, // standard table value
		{10, 5, 0.0184},
	}
	for _, c := range cases {
		got := ErlangB(c.n, c.a)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ErlangB(%d, %v) = %.4f, want %.4f", c.n, c.a, got, c.want)
		}
	}
	if ErlangB(0, 5) != 1 {
		t.Error("zero servers should block everything")
	}
	if ErlangB(5, 0) != 0 {
		t.Error("zero load should never block")
	}
	if ErlangB(-1, 1) != 1 || ErlangB(1, -1) != 1 {
		t.Error("invalid inputs should block")
	}
}

// Property: blocking decreases in servers, increases in load.
func TestErlangBMonotoneProperty(t *testing.T) {
	prop := func(n uint8, tenthErl uint8) bool {
		servers := int(n%50) + 1
		a := float64(tenthErl) / 10
		b := ErlangB(servers, a)
		if b < 0 || b > 1 {
			return false
		}
		return ErlangB(servers+1, a) <= b && ErlangB(servers, a+1) >= b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestServersFor(t *testing.T) {
	n, err := ServersFor(5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ErlangB(n, 5) > 0.01 {
		t.Errorf("ServersFor result %d still blocks %.4f", n, ErlangB(n, 5))
	}
	if n > 1 && ErlangB(n-1, 5) <= 0.01 {
		t.Errorf("ServersFor result %d not minimal", n)
	}
	if got, _ := ServersFor(0, 0.01); got != 0 {
		t.Errorf("zero load needs %d servers", got)
	}
	if _, err := ServersFor(5, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := ServersFor(5, 1); err == nil {
		t.Error("target 1 accepted")
	}
	if _, err := ServersFor(-1, 0.1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestDemandBasics(t *testing.T) {
	d := Demand{}
	d.Set("DC-A", "DC-B", 2)
	if d[canonPair("DC-B", "DC-A")] != 2 {
		t.Error("pair canonicalization broken")
	}
	d.Set("DC-A", "DC-C", 1)
	if d.Total() != 3 {
		t.Errorf("Total = %v", d.Total())
	}
	grown := d.Grow(2, 2) // one doubling
	if math.Abs(grown.Total()-6) > 1e-9 {
		t.Errorf("grown total = %v, want 6", grown.Total())
	}
	if d.Total() != 3 {
		t.Error("Grow mutated the original")
	}
	// Default doubling period kicks in for nonsense input.
	if g := d.Grow(2, 0); math.Abs(g.Total()-6) > 1e-9 {
		t.Errorf("default doubling: %v", g.Total())
	}
}

func TestNodeLoad(t *testing.T) {
	g := topo.Testbed()
	d := Demand{}
	d.Set("DC-A", "DC-B", 2) // homes I and III
	d.Set("DC-A", "DC-C", 1) // homes I and IV
	loads, err := NodeLoad(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if loads["I"] != 3 || loads["III"] != 2 || loads["IV"] != 1 {
		t.Errorf("loads = %v", loads)
	}
	d.Set("DC-A", "DC-Z", 1)
	if _, err := NodeLoad(g, d); err == nil {
		t.Error("unknown site accepted")
	}
	bad := Demand{}
	bad.Set("DC-A", "DC-B", -1)
	if _, err := NodeLoad(g, bad); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestPlanOTs(t *testing.T) {
	g := topo.Testbed()
	d := Demand{}
	d.Set("DC-A", "DC-B", 4)
	d.Set("DC-A", "DC-C", 2)
	plans, err := PlanOTs(g, d, 0.01, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("plans = %d nodes", len(plans))
	}
	byNode := map[topo.NodeID]Plan{}
	for _, p := range plans {
		byNode[p.Node] = p
		if p.Blocking > 0.01 {
			t.Errorf("node %s planned blocking %.4f > target", p.Node, p.Blocking)
		}
		if p.RestorationOTs < 1 {
			t.Errorf("node %s has no restoration headroom", p.Node)
		}
		if p.Total() != p.WorkingOTs+p.RestorationOTs {
			t.Errorf("node %s Total inconsistent", p.Node)
		}
	}
	// Node I carries 6 erlangs; III carries 4; I must get more OTs.
	if byNode["I"].WorkingOTs <= byNode["III"].WorkingOTs {
		t.Errorf("I (%d OTs) should exceed III (%d OTs)",
			byNode["I"].WorkingOTs, byNode["III"].WorkingOTs)
	}
	if _, err := PlanOTs(g, d, 0.01, -1); err == nil {
		t.Error("negative restoration share accepted")
	}
}

// Property: planned pools always meet the blocking target.
func TestPlanMeetsTargetProperty(t *testing.T) {
	g := topo.Testbed()
	prop := func(a, b, c uint8) bool {
		d := Demand{}
		d.Set("DC-A", "DC-B", float64(a%40))
		d.Set("DC-A", "DC-C", float64(b%40))
		d.Set("DC-B", "DC-C", float64(c%40))
		plans, err := PlanOTs(g, d, 0.02, 0)
		if err != nil {
			return false
		}
		for _, p := range plans {
			if p.Blocking > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
