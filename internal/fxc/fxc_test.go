package fxc

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func std(t *testing.T) *Switch {
	t.Helper()
	return StandardLayout(4, 4, 2).Switch("I")
}

func TestNewValidation(t *testing.T) {
	if _, err := NewLayout([]Port{{ID: "", Role: Client}}); err == nil {
		t.Error("empty port ID accepted")
	}
	if _, err := NewLayout([]Port{{ID: "a", Role: Client}, {ID: "a", Role: Line}}); err == nil {
		t.Error("duplicate port ID accepted")
	}
}

func TestStandardShape(t *testing.T) {
	s := std(t)
	if s.node != "I" {
		t.Errorf("node = %s", s.node)
	}
	by := s.layout.byRole
	if len(by[Client]) != 4 || len(by[Line]) != 4 || len(by[Groom]) != 2 {
		t.Errorf("ports = %d/%d/%d", len(by[Client]), len(by[Line]), len(by[Groom]))
	}
}

// TestSharedLayoutSwitches holds switches built from one shared layout to
// what a switch built port by port for its own node did: the same IDs per
// role, handed out by FreePort in the same (lexical) order, the same errors
// naming the switch's node, and no state leaking from one switch to another.
func TestSharedLayoutSwitches(t *testing.T) {
	l := StandardLayout(12, 12, 16)
	a, b := l.Switch("A"), l.Switch("B")
	for _, bank := range []struct {
		prefix string
		n      int
		role   PortRole
	}{{"C", 12, Client}, {"L", 12, Line}, {"G", 16, Groom}} {
		var want []string
		for i := 0; i < bank.n; i++ {
			want = append(want, fmt.Sprintf("%s%d", bank.prefix, i))
		}
		sort.Strings(want)
		for i, id := range want {
			got, err := a.FreePort(bank.role)
			if err != nil || string(got) != id {
				t.Fatalf("%v #%d: FreePort = %q, %v; want %q", bank.role, i, got, err, id)
			}
			if role := a.layout.ports[got].Role; role != bank.role {
				t.Fatalf("%s has role %v, want %v", got, role, bank.role)
			}
			a.peer[got], a.owner[got] = "x", "o" // occupy without a partner
		}
		_, err := a.FreePort(bank.role)
		if want := fmt.Sprintf("fxc: no free %v port at A", bank.role); err == nil || err.Error() != want {
			t.Errorf("exhausted %v bank: err = %v, want %q", bank.role, err, want)
		}
		if got, err := b.FreePort(bank.role); err != nil || string(got) != want[0] {
			t.Errorf("switch B sees switch A's ports: FreePort = %q, %v", got, err)
		}
	}
	for _, c := range []struct {
		a, b PortID
		want string
	}{
		{"X9", "L0", "fxc: unknown port X9 at B"},
		{"C0", "X9", "fxc: unknown port X9 at B"},
		{"C0", "C0", "fxc: cannot connect port C0 to itself"},
		{"C0", "C1", "fxc: client-to-client cross-connect C0-C1 rejected"},
	} {
		if err := b.Connect(c.a, c.b, "o"); err == nil || err.Error() != c.want {
			t.Errorf("Connect(%s, %s) = %v, want %q", c.a, c.b, err, c.want)
		}
	}
}

// TestSwitchAllocsIndependentOfPorts gates what a controller pays per PoP:
// the port tables are built once per layout, so a switch costs its own
// struct and two empty maps, however many ports the model has.
func TestSwitchAllocsIndependentOfPorts(t *testing.T) {
	for _, n := range []int{4, 64} {
		l := StandardLayout(n, n, n)
		allocs := testing.AllocsPerRun(100, func() { l.Switch("I") })
		if allocs > 3 {
			t.Errorf("%d ports per bank: Layout.Switch allocates %.0f objects, want at most 3", n, allocs)
		}
	}
}

func TestConnectDisconnect(t *testing.T) {
	s := std(t)
	if err := s.Connect("C0", "L0", "conn1"); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.peer["C0"]; !ok || p != "L0" {
		t.Errorf("PeerOf(C0) = %s,%v", p, ok)
	}
	if p, ok := s.peer["L0"]; !ok || p != "C0" {
		t.Errorf("PeerOf(L0) = %s,%v", p, ok)
	}
	if s.owner["C0"] != "conn1" || s.owner["L0"] != "conn1" {
		t.Error("owner not recorded on both ends")
	}
	if len(s.peer)/2 != 1 {
		t.Errorf("connections = %d", len(s.peer)/2)
	}
	if err := s.Disconnect("L0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.peer["C0"]; ok {
		t.Error("C0 still connected after disconnecting via peer")
	}
	if err := s.Disconnect("L0"); err == nil {
		t.Error("double disconnect accepted")
	}
}

func TestConnectRejections(t *testing.T) {
	s := std(t)
	cases := []struct {
		name string
		a, b PortID
	}{
		{"unknown a", "X9", "L0"},
		{"unknown b", "C0", "X9"},
		{"self", "C0", "C0"},
		{"client-client", "C0", "C1"},
	}
	for _, c := range cases {
		if err := s.Connect(c.a, c.b, "o"); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := s.Connect("C0", "L0", ""); err == nil {
		t.Error("empty owner accepted")
	}
	s.Connect("C0", "L0", "o1")
	if err := s.Connect("C0", "L1", "o2"); err == nil {
		t.Error("busy port a accepted")
	}
	if err := s.Connect("C1", "L0", "o2"); err == nil {
		t.Error("busy port b accepted")
	}
	// Line-to-groom is legal (OT handoff into the OTN switch).
	if err := s.Connect("L1", "G0", "o3"); err != nil {
		t.Errorf("line-groom rejected: %v", err)
	}
}

func TestFreePort(t *testing.T) {
	s := StandardLayout(2, 1, 0).Switch("I")
	p, err := s.FreePort(Client)
	if err != nil {
		t.Fatal(err)
	}
	if p != "C0" {
		t.Errorf("FreePort = %s, want C0 (lowest)", p)
	}
	s.Connect("C0", "L0", "o")
	p, err = s.FreePort(Client)
	if err != nil || p != "C1" {
		t.Errorf("FreePort = %s,%v want C1", p, err)
	}
	if _, err := s.FreePort(Line); err == nil {
		t.Error("exhausted line bank yielded a port")
	}
	if _, err := s.FreePort(Groom); err == nil {
		t.Error("empty groom bank yielded a port")
	}
}

// Property: connect/disconnect pairs keep peer symmetry and never lose or
// duplicate ports.
func TestConnectSymmetryProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		s := StandardLayout(8, 8, 0).Switch("N")
		for _, op := range ops {
			c := PortID([]string{"C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7"}[op%8])
			l := PortID([]string{"L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7"}[(op/8)%8])
			if op%2 == 0 {
				s.Connect(c, l, "o")
			} else {
				s.Disconnect(c)
			}
			// Symmetry invariant.
			for _, p := range []PortID{c, l} {
				if q, ok := s.peer[p]; ok {
					if r, ok2 := s.peer[q]; !ok2 || r != p {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[PortRole]string{Client: "client", Line: "line", Groom: "groom"} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
	if PortRole(7).String() == "" {
		t.Error("unknown role string empty")
	}
}
