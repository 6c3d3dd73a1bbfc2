package rwa

import (
	"errors"
	"testing"
	"testing/quick"

	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestShortestPathByHops(t *testing.T) {
	g := topo.Testbed()
	p, err := shortestPath(g, "I", "IV", ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "I-IV" {
		t.Errorf("path = %s, want I-IV", p)
	}
}

func TestShortestPathByKM(t *testing.T) {
	g := topo.Backbone()
	p, err := shortestPath(g, "SEA", "NYC", ByKM, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// SEA-CHI-ANN-NYC = 2800+380+1000 = 4180 is the km-shortest.
	if p.String() != "SEA-CHI-ANN-NYC" {
		t.Errorf("path = %s", p)
	}
	if w := PathWeight(g, p, ByKM); w != 4180 {
		t.Errorf("weight = %v", w)
	}
}

func TestShortestPathAvoidsLinksAndNodes(t *testing.T) {
	g := topo.Testbed()
	p, err := shortestPath(g, "I", "IV", ByHops, Constraints{
		AvoidLinks: map[topo.LinkID]bool{"I-IV": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "I-III-IV" {
		t.Errorf("path = %s, want I-III-IV", p)
	}
	p, err = shortestPath(g, "I", "IV", ByHops, Constraints{
		AvoidLinks: map[topo.LinkID]bool{"I-IV": true},
		AvoidNodes: map[topo.NodeID]bool{"III": true},
	})
	if err == nil {
		t.Errorf("avoiding I-IV and III should leave no path, got %s", p)
	}
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathValidation(t *testing.T) {
	g := topo.Testbed()
	if _, err := shortestPath(g, "Z", "IV", ByHops, Constraints{}); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := shortestPath(g, "I", "Z", ByHops, Constraints{}); err == nil {
		t.Error("unknown dst accepted")
	}
	if _, err := shortestPath(g, "I", "I", ByHops, Constraints{}); err == nil {
		t.Error("src==dst accepted")
	}
}

func TestShortestPathDeterministic(t *testing.T) {
	g := topo.Backbone()
	first, err := shortestPath(g, "SEA", "ATL", ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p, err := shortestPath(g, "SEA", "ATL", ByHops, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(first) {
			t.Fatalf("run %d diverged: %s vs %s", i, p, first)
		}
	}
}

func TestKShortestTestbedPaths(t *testing.T) {
	g := topo.Testbed()
	paths, err := KShortest(g, "I", "IV", 3, ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	// The three Table 2 paths, in hop order.
	want := []string{"I-IV", "I-III-IV", "I-II-III-IV"}
	for i, w := range want {
		if paths[i].String() != w {
			t.Errorf("path[%d] = %s, want %s", i, paths[i], w)
		}
	}
}

func TestKShortestOrderingAndUniqueness(t *testing.T) {
	g := topo.Backbone()
	paths, err := KShortest(g, "SEA", "ATL", 8, ByKM, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("only %d paths", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if PathWeight(g, paths[i-1], ByKM) > PathWeight(g, paths[i], ByKM) {
			t.Errorf("paths out of order at %d", i)
		}
		for j := 0; j < i; j++ {
			if paths[i].Equal(paths[j]) {
				t.Errorf("duplicate path %s", paths[i])
			}
		}
	}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Errorf("invalid path %s: %v", p, err)
		}
	}
}

func TestKShortestRespectsConstraints(t *testing.T) {
	g := topo.Testbed()
	paths, err := KShortest(g, "I", "IV", 5, ByHops, Constraints{
		AvoidLinks: map[topo.LinkID]bool{"I-IV": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.HasLink("I-IV") {
			t.Errorf("path %s uses avoided link", p)
		}
	}
}

func TestKShortestExhaustsGracefully(t *testing.T) {
	g := topo.Testbed()
	paths, err := KShortest(g, "I", "IV", 100, ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// The testbed only has 3 loop-free I->IV paths.
	if len(paths) != 3 {
		t.Errorf("got %d paths, want 3", len(paths))
	}
}

func TestDisjointPair(t *testing.T) {
	g := topo.Testbed()
	p, b, err := DisjointPair(g, "I", "IV", 4, ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if !linkDisjoint(p, b) {
		t.Fatalf("pair not disjoint: %s / %s", p, b)
	}
	if p.String() != "I-IV" {
		t.Errorf("primary = %s, want I-IV", p)
	}
	if b.String() != "I-III-IV" {
		t.Errorf("backup = %s, want I-III-IV", b)
	}
}

func TestDisjointPairImpossible(t *testing.T) {
	// A line graph has no disjoint pair.
	g := topo.New()
	for _, n := range []topo.NodeID{"A", "B", "C"} {
		g.AddNode(topo.Node{ID: n})
	}
	g.AddLink(topo.Link{ID: "A-B", A: "A", B: "B", KM: 10})
	g.AddLink(topo.Link{ID: "B-C", A: "B", B: "C", KM: 10})
	if _, _, err := DisjointPair(g, "A", "C", 4, ByHops, Constraints{}); err == nil {
		t.Error("disjoint pair found on a line graph")
	}
}

func TestDisjointPairOnRing(t *testing.T) {
	g, _ := topo.Ring(8, 100)
	p, b, err := DisjointPair(g, "R00", "R04", 4, ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if !linkDisjoint(p, b) {
		t.Fatal("ring pair not disjoint")
	}
	if p.Hops()+b.Hops() != 8 {
		t.Errorf("ring pair hops = %d+%d, want 8 total", p.Hops(), b.Hops())
	}
}

func newPlant(t *testing.T, g *topo.Graph) *optics.Plant {
	t.Helper()
	p, err := optics.NewPlant(g, optics.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssignWavelengthPolicies(t *testing.T) {
	g := topo.Testbed()
	plant := newPlant(t, g)
	links := []topo.LinkID{"I-III", "III-IV"}
	plant.Spectrum("I-III").Reserve(1, "x")

	ch, err := AssignWavelength(plant, links, FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 2 {
		t.Errorf("first-fit = %d, want 2", ch)
	}

	// Make channel 7 heavily used elsewhere; MostUsed should pick it.
	plant.Spectrum("I-II").Reserve(7, "y")
	plant.Spectrum("II-III").Reserve(7, "z")
	ch, err = AssignWavelength(plant, links, MostUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 7 {
		t.Errorf("most-used = %d, want 7", ch)
	}

	// LeastUsed avoids 7 (and 1 is used on I-III so not even free).
	ch, err = AssignWavelength(plant, links, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch == 7 {
		t.Error("least-used picked the busiest channel")
	}

	rng := sim.NewRand(3)
	ch, err = AssignWavelength(plant, links, RandomFit, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ch < 2 || int(ch) > 80 {
		t.Errorf("random = %d out of range", ch)
	}
	if _, err := AssignWavelength(plant, links, RandomFit, nil); err == nil {
		t.Error("RandomFit without rng accepted")
	}
	if _, err := AssignWavelength(plant, nil, FirstFit, nil); err == nil {
		t.Error("empty link list accepted")
	}
	if _, err := AssignWavelength(plant, links, AssignPolicy(99), nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAssignWavelengthBlocked(t *testing.T) {
	g := topo.Testbed()
	cfg := optics.DefaultConfig()
	cfg.Channels = 2
	plant, err := optics.NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plant.Spectrum("I-IV").Reserve(1, "a")
	plant.Spectrum("I-IV").Reserve(2, "b")
	if _, err := AssignWavelength(plant, []topo.LinkID{"I-IV"}, FirstFit, nil); err == nil {
		t.Error("assignment on a full link succeeded")
	}
}

func TestFindRouteSimple(t *testing.T) {
	g := topo.Testbed()
	plant := newPlant(t, g)
	r, err := FindRoute(plant, "I", "IV", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Path.String() != "I-IV" {
		t.Errorf("path = %s", r.Path)
	}
	if len(r.Channels) != 1 || r.Channels[0] != 1 {
		t.Errorf("channels = %v", r.Channels)
	}
	if len(r.Plan.RegenNodes) > 0 {
		t.Error("testbed route should not need regen")
	}
}

func TestFindRouteAvoidsFailedLink(t *testing.T) {
	g := topo.Testbed()
	plant := newPlant(t, g)
	plant.SetLinkUp("I-IV", false)
	r, err := FindRoute(plant, "I", "IV", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Path.HasLink("I-IV") {
		t.Errorf("route %s uses failed link", r.Path)
	}
}

func TestFindRouteFallsBackWhenBlocked(t *testing.T) {
	g := topo.Testbed()
	cfg := optics.DefaultConfig()
	cfg.Channels = 1
	plant, err := optics.NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Block the only channel on the direct link; route must detour.
	plant.Spectrum("I-IV").Reserve(1, "other")
	r, err := FindRoute(plant, "I", "IV", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Path.HasLink("I-IV") {
		t.Errorf("blocked link still used: %s", r.Path)
	}
}

func TestFindRouteWithRegens(t *testing.T) {
	g := topo.Backbone()
	cfg := optics.DefaultConfig()
	cfg.ReachKM = 3000
	plant, err := optics.NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := FindRoute(plant, "SEA", "ATL", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Path.KM(g) > 3000 && len(r.Plan.RegenNodes) == 0 {
		t.Error("long path without regens")
	}
	if len(r.Channels) != len(r.Plan.Segments) {
		t.Errorf("channels/segments mismatch: %d/%d", len(r.Channels), len(r.Plan.Segments))
	}
}

func TestFindRouteNoPath(t *testing.T) {
	g := topo.Testbed()
	plant := newPlant(t, g)
	for _, l := range g.Links() {
		plant.SetLinkUp(l.ID, false)
	}
	if _, err := FindRoute(plant, "I", "IV", Options{}); err == nil {
		t.Error("route found on fully failed network")
	}
}

// Property: on the backbone, FindRoute between random site pairs always
// returns a valid path whose segments all have an assignable channel
// reserved-state untouched (FindRoute must not mutate the plant).
func TestFindRoutePureProperty(t *testing.T) {
	g := topo.Backbone()
	plant := newPlant(t, g)
	nodes := g.Nodes()
	prop := func(a, b uint8) bool {
		src := nodes[int(a)%len(nodes)].ID
		dst := nodes[int(b)%len(nodes)].ID
		if src == dst {
			return true
		}
		before := 0
		for _, l := range g.Links() {
			before += plant.Spectrum(l.ID).Used()
		}
		r, err := FindRoute(plant, src, dst, Options{})
		if err != nil {
			return false
		}
		after := 0
		for _, l := range g.Links() {
			after += plant.Spectrum(l.ID).Used()
		}
		return r.Path.Validate(g) == nil && before == after
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFindRouteCostIndependentOfK pins that FindRoute searches only for the
// paths it tries: on an unloaded plant the first path assigns, so a larger K
// must cost nothing. Allocations count the work done whatever the host.
func TestFindRouteCostIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops arenas at random, so allocation counts vary")
	}
	g, err := topo.Continental(75, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	plant := newPlant(t, g)
	sites := g.Sites()
	src, dst := sites[0].Home, sites[len(sites)-1].Home
	allocs := map[int]float64{}
	for _, k := range []int{1, 4, 8} {
		allocs[k] = testing.AllocsPerRun(50, func() {
			if _, err := FindRoute(plant, src, dst, Options{K: k}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[4] != allocs[1] || allocs[8] != allocs[1] {
		t.Fatalf("FindRoute %s->%s allocations by K: 1: %v, 4: %v, 8: %v; want equal", src, dst, allocs[1], allocs[4], allocs[8])
	}
	t.Logf("FindRoute %s->%s: %v allocations for K = 1, 4 and 8", src, dst, allocs[1])
}

func TestMetricAndPolicyStrings(t *testing.T) {
	if ByHops.String() != "hops" || ByKM.String() != "km" {
		t.Error("metric strings")
	}
	if Metric(9).String() == "" {
		t.Error("unknown metric string empty")
	}
	for p, want := range map[AssignPolicy]string{
		FirstFit: "first-fit", MostUsed: "most-used", LeastUsed: "least-used", RandomFit: "random",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	g := topo.Testbed()
	p, _ := topo.PathVia(g, "I", "IV")
	d := PropagationDelay(g, p)
	want := 320 * 4.9e-6
	if d < want*0.99 || d > want*1.01 {
		t.Errorf("delay = %v, want ~%v", d, want)
	}
}

// shortestPath is the first of KShortest's paths: the compiled engine's
// Dijkstra, which every route search starts from.
func shortestPath(g *topo.Graph, src, dst topo.NodeID, m Metric, c Constraints) (topo.Path, error) {
	ps, err := KShortest(g, src, dst, 1, m, c)
	if err != nil {
		return topo.Path{}, err
	}
	return ps[0], nil
}

// linkDisjoint reports whether p and q share no link.
func linkDisjoint(p, q topo.Path) bool {
	for _, l := range q.Links {
		if p.HasLink(l) {
			return false
		}
	}
	return true
}
