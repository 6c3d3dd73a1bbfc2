package topo

import (
	"math"
	"strings"
	"testing"
)

func twoNodeGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	if err := g.AddNode(Node{ID: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(Node{ID: "B"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{ID: "A-B", A: "A", B: "B", KM: 100}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddNodeRejectsDuplicatesAndEmpty(t *testing.T) {
	g := New()
	if err := g.AddNode(Node{ID: ""}); err == nil {
		t.Error("empty node ID accepted")
	}
	if err := g.AddNode(Node{ID: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(Node{ID: "A"}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New()
	g.AddNode(Node{ID: "A"})
	g.AddNode(Node{ID: "B"})
	cases := []struct {
		name string
		l    Link
	}{
		{"empty ID", Link{A: "A", B: "B", KM: 1}},
		{"self loop", Link{ID: "x", A: "A", B: "A", KM: 1}},
		{"unknown A", Link{ID: "x", A: "Z", B: "B", KM: 1}},
		{"unknown B", Link{ID: "x", A: "A", B: "Z", KM: 1}},
		{"zero length", Link{ID: "x", A: "A", B: "B", KM: 0}},
		{"negative length", Link{ID: "x", A: "A", B: "B", KM: -5}},
		{"NaN length", Link{ID: "x", A: "A", B: "B", KM: math.NaN()}},
		{"infinite length", Link{ID: "x", A: "A", B: "B", KM: math.Inf(1)}},
	}
	for _, c := range cases {
		if err := g.AddLink(c.l); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := g.AddLink(Link{ID: "ok", A: "A", B: "B", KM: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{ID: "ok", A: "A", B: "B", KM: 1}); err == nil {
		t.Error("duplicate link ID accepted")
	}
}

func TestAddSiteValidation(t *testing.T) {
	g := twoNodeGraph(t)
	if err := g.AddSite(Site{ID: "", Home: "A", AccessGbps: 10}); err == nil {
		t.Error("empty site ID accepted")
	}
	if err := g.AddSite(Site{ID: "S", Home: "Z", AccessGbps: 10}); err == nil {
		t.Error("unknown home accepted")
	}
	if err := g.AddSite(Site{ID: "S", Home: "A", AccessGbps: 0}); err == nil {
		t.Error("zero access capacity accepted")
	}
	if err := g.AddSite(Site{ID: "S", Home: "A", AccessGbps: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSite(Site{ID: "S", Home: "B", AccessGbps: 10}); err == nil {
		t.Error("duplicate site accepted")
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{ID: "x", A: "A", B: "B"}
	if l.Other("A") != "B" || l.Other("B") != "A" {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	l.Other("C")
}

func TestDegreeAndAdjacency(t *testing.T) {
	g := Testbed()
	// Paper Fig. 4: two 3-degree ROADMs and two 2-degree ROADMs.
	wantDeg := map[NodeID]int{"I": 3, "II": 2, "III": 3, "IV": 2}
	for n, want := range wantDeg {
		if got := g.Degree(n); got != want {
			t.Errorf("degree(%s) = %d, want %d", n, got, want)
		}
	}
	links := g.LinksAt("I")
	if len(links) != 3 {
		t.Fatalf("LinksAt(I) = %d links", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i-1].ID >= links[i].ID {
			t.Error("LinksAt not sorted")
		}
	}
}

func TestLinkBetween(t *testing.T) {
	g := Testbed()
	if l := g.LinkBetween("I", "IV"); l == nil || l.ID != "I-IV" {
		t.Errorf("LinkBetween(I,IV) = %v", l)
	}
	if l := g.LinkBetween("II", "IV"); l != nil {
		t.Errorf("LinkBetween(II,IV) = %v, want nil", l)
	}
}

func TestConnectedAndValidate(t *testing.T) {
	g := Testbed()
	if err := g.Validate(); err != nil {
		t.Errorf("testbed invalid: %v", err)
	}
	// An isolated node disconnects the graph.
	g.AddNode(Node{ID: "X"})
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate passed on disconnected graph")
	}
	if err := New().Validate(); err == nil {
		t.Error("Validate passed on empty graph")
	}
}

func TestSortedAccessors(t *testing.T) {
	g := Backbone()
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatal("Nodes not sorted")
		}
	}
	links := g.Links()
	for i := 1; i < len(links); i++ {
		if links[i-1].ID >= links[i].ID {
			t.Fatal("Links not sorted")
		}
	}
	sites := g.Sites()
	for i := 1; i < len(sites); i++ {
		if sites[i-1].ID >= sites[i].ID {
			t.Fatal("Sites not sorted")
		}
	}
}

func TestTestbedTable2PathsExist(t *testing.T) {
	g := Testbed()
	for _, nodes := range [][]NodeID{
		{"I", "IV"},
		{"I", "III", "IV"},
		{"I", "II", "III", "IV"},
	} {
		p, err := PathVia(g, nodes...)
		if err != nil {
			t.Errorf("path %v: %v", nodes, err)
			continue
		}
		if p.Hops() != len(nodes)-1 {
			t.Errorf("path %v hops = %d", nodes, p.Hops())
		}
	}
}

func TestBackboneShape(t *testing.T) {
	g := Backbone()
	if len(g.nodes) != 14 {
		t.Errorf("nodes = %d, want 14", len(g.nodes))
	}
	if len(g.links) != 21 {
		t.Errorf("links = %d, want 21", len(g.links))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("backbone invalid: %v", err)
	}
	if len(g.Sites()) != 6 {
		t.Errorf("sites = %d, want 6", len(g.Sites()))
	}
	for _, s := range g.Sites() {
		n := g.Node(s.Home)
		if n == nil {
			t.Errorf("site %s home missing", s.ID)
			continue
		}
		if !n.HasOTN {
			t.Errorf("site %s home %s lacks an OTN switch", s.ID, s.Home)
		}
	}
}

func TestRing(t *testing.T) {
	if _, err := Ring(2, 100); err == nil {
		t.Error("Ring(2) accepted")
	}
	g, err := Ring(6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) != 6 || len(g.links) != 6 {
		t.Errorf("ring shape: %d nodes %d links", len(g.nodes), len(g.links))
	}
	for _, n := range g.Nodes() {
		if g.Degree(n.ID) != 2 {
			t.Errorf("ring degree(%s) = %d", n.ID, g.Degree(n.ID))
		}
	}
}

func TestPathProperties(t *testing.T) {
	g := Testbed()
	p, err := PathVia(g, "I", "II", "III", "IV")
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != "I" || p.Dst() != "IV" {
		t.Errorf("src/dst = %s/%s", p.Src(), p.Dst())
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d", p.Hops())
	}
	if got := p.KM(g); got != 300+290+280 {
		t.Errorf("KM = %v", got)
	}
	if !p.HasLink("II-III") || p.HasLink("I-IV") {
		t.Error("HasLink wrong")
	}
	mid := p.Intermediate()
	if len(mid) != 2 || mid[0] != "II" || mid[1] != "III" {
		t.Errorf("Intermediate = %v", mid)
	}
	if p.String() != "I-II-III-IV" {
		t.Errorf("String = %q", p.String())
	}
	if !strings.Contains(Path{}.String(), "empty") {
		t.Error("empty path String")
	}
}

func TestPathDisjointAndEqual(t *testing.T) {
	g := Testbed()
	p1, _ := PathVia(g, "I", "IV")
	p2, _ := PathVia(g, "I", "II", "III", "IV")
	p3, _ := PathVia(g, "I", "III", "IV")
	if !p1.Equal(p1) || p1.Equal(p2) || p2.Equal(p3) {
		t.Error("Equal wrong")
	}
}

func TestPathValidate(t *testing.T) {
	g := Testbed()
	good, _ := PathVia(g, "I", "III", "IV")
	if err := good.Validate(g); err != nil {
		t.Errorf("good path invalid: %v", err)
	}
	bad := Path{Nodes: []NodeID{"I", "IV"}, Links: []LinkID{"I-III"}}
	if err := bad.Validate(g); err == nil {
		t.Error("mismatched link accepted")
	}
	loop := Path{Nodes: []NodeID{"I", "III", "I"}, Links: []LinkID{"I-III", "I-III"}}
	if err := loop.Validate(g); err == nil {
		t.Error("looping path accepted")
	}
	short := Path{Nodes: []NodeID{"I", "IV"}}
	if err := short.Validate(g); err == nil {
		t.Error("node/link count mismatch accepted")
	}
	if err := (Path{}).Validate(g); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := PathVia(g, "I"); err == nil {
		t.Error("single-node PathVia accepted")
	}
	if _, err := PathVia(g, "II", "IV"); err == nil {
		t.Error("PathVia over missing link accepted")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(4, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) != 20 {
		t.Errorf("nodes = %d", len(g.nodes))
	}
	// Links: rows*(cols-1) + (rows-1)*cols = 4*4 + 3*5 = 31.
	if len(g.links) != 31 {
		t.Errorf("links = %d, want 31", len(g.links))
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if len(g.Sites()) != 4 {
		t.Errorf("sites = %d", len(g.Sites()))
	}
	// Interior nodes have degree 4, corners 2.
	if g.Degree("G0101") != 4 {
		t.Errorf("interior degree = %d", g.Degree("G0101"))
	}
	if g.Degree("G0000") != 2 {
		t.Errorf("corner degree = %d", g.Degree("G0000"))
	}
	for _, bad := range [][3]any{{1, 5, 200.0}, {5, 1, 200.0}, {3, 3, 0.0}} {
		if _, err := Grid(bad[0].(int), bad[1].(int), bad[2].(float64)); err == nil {
			t.Errorf("Grid(%v) accepted", bad)
		}
	}
}

func TestContinental(t *testing.T) {
	g, err := Continental(75, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) != 75 {
		t.Errorf("nodes = %d", len(g.nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Sites()) != 8 {
		t.Errorf("sites = %d", len(g.Sites()))
	}
	// Gabriel graphs of random points average degree ~4; sanity-band it.
	avg := 2 * float64(len(g.links)) / float64(len(g.nodes))
	if avg < 2.5 || avg > 5 {
		t.Errorf("average degree = %.2f, want mesh-like 2.5-5", avg)
	}
	// Deterministic per seed.
	g2, _ := Continental(75, 8, 42)
	if len(g2.links) != len(g.links) {
		t.Error("same seed produced different graphs")
	}
	g3, _ := Continental(75, 8, 43)
	if len(g3.links) == len(g.links) && len(g3.Links()) > 0 && g3.Links()[0].KM == g.Links()[0].KM {
		t.Error("different seeds produced identical graphs")
	}
	// Validation.
	for _, bad := range [][3]int{{3, 2, 1}, {10, 1, 1}, {10, 11, 1}} {
		if _, err := Continental(bad[0], bad[1], int64(bad[2])); err == nil {
			t.Errorf("Continental(%v) accepted", bad)
		}
	}
}

func TestContinentalSupportsController(t *testing.T) {
	// The generated mesh must be routable end to end.
	g, err := Continental(40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sites := g.Sites()
	// There is a path between every pair of site homes.
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			if sites[i].Home == sites[j].Home {
				t.Fatalf("sites %s and %s share a home", sites[i].ID, sites[j].ID)
			}
		}
	}
}
