package rwa

// Equivalence and determinism coverage for the compiled integer-indexed
// engine. The ref* functions below are verbatim copies of the seed's
// string-keyed, map-based implementations; the tests assert that the compiled
// engine returns exactly the paths, orderings and channel selections the seed
// returned, over seeded random topologies and random constraint sets. The
// golden fixtures in testdata/ pin that behaviour across future refactors
// (regenerate with -update, which runs the reference implementation).

import (
	"container/heap"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

var update = flag.Bool("update", false, "regenerate golden fixtures from the reference implementation")

// ---- reference implementation (seed copy) ----

func refWeight(l *topo.Link, m Metric) float64 {
	if m == ByKM {
		return l.KM
	}
	return 1
}

type refPQItem struct {
	node  topo.NodeID
	dist  float64
	index int
}

type refNodePQ []*refPQItem

func (q refNodePQ) Len() int { return len(q) }
func (q refNodePQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q refNodePQ) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refNodePQ) Push(x any) {
	it := x.(*refPQItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refNodePQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

func refShortestPath(g *topo.Graph, src, dst topo.NodeID, m Metric, c Constraints) (topo.Path, error) {
	if g.Node(src) == nil {
		return topo.Path{}, fmt.Errorf("rwa: unknown source %s", src)
	}
	if g.Node(dst) == nil {
		return topo.Path{}, fmt.Errorf("rwa: unknown destination %s", dst)
	}
	if src == dst {
		return topo.Path{}, fmt.Errorf("rwa: source equals destination %s", src)
	}

	dist := map[topo.NodeID]float64{src: 0}
	prevLink := map[topo.NodeID]topo.LinkID{}
	prevNode := map[topo.NodeID]topo.NodeID{}
	visited := map[topo.NodeID]bool{}

	pq := &refNodePQ{}
	heap.Push(pq, &refPQItem{node: src, dist: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refPQItem)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		if it.node == dst {
			break
		}
		for _, l := range g.LinksAt(it.node) {
			if c.AvoidLinks[l.ID] {
				continue
			}
			o := l.Other(it.node)
			if visited[o] {
				continue
			}
			if o != dst && o != src && c.AvoidNodes[o] {
				continue
			}
			nd := it.dist + refWeight(l, m)
			cur, seen := dist[o]
			better := !seen || nd < cur
			if seen && nd == cur && l.ID < prevLink[o] {
				better = true
			}
			if better {
				dist[o] = nd
				prevLink[o] = l.ID
				prevNode[o] = it.node
				heap.Push(pq, &refPQItem{node: o, dist: nd})
			}
		}
	}
	if !visited[dst] {
		return topo.Path{}, ErrNoPath
	}

	var nodes []topo.NodeID
	var links []topo.LinkID
	for n := dst; ; {
		nodes = append(nodes, n)
		if n == src {
			break
		}
		links = append(links, prevLink[n])
		n = prevNode[n]
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return topo.Path{Nodes: nodes, Links: links}, nil
}

func refSharesRoot(p topo.Path, rootNodes []topo.NodeID, rootLinks []topo.LinkID) bool {
	if len(p.Nodes) < len(rootNodes) || len(p.Links) < len(rootLinks) {
		return false
	}
	for i, n := range rootNodes {
		if p.Nodes[i] != n {
			return false
		}
	}
	for i, l := range rootLinks {
		if p.Links[i] != l {
			return false
		}
	}
	return true
}

func refContainsPath(ps []topo.Path, q topo.Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

func refKShortest(g *topo.Graph, src, dst topo.NodeID, k int, m Metric, c Constraints) ([]topo.Path, error) {
	if k <= 0 {
		k = 1
	}
	first, err := refShortestPath(g, src, dst, m, c)
	if err != nil {
		return nil, err
	}
	paths := []topo.Path{first}
	var candidates []topo.Path

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLinks := prev.Links[:i]

			avoidLinks := map[topo.LinkID]bool{}
			for id := range c.AvoidLinks {
				avoidLinks[id] = true
			}
			for _, p := range paths {
				if refSharesRoot(p, rootNodes, rootLinks) && i < len(p.Links) {
					avoidLinks[p.Links[i]] = true
				}
			}
			for _, cand := range candidates {
				if refSharesRoot(cand, rootNodes, rootLinks) && i < len(cand.Links) {
					avoidLinks[cand.Links[i]] = true
				}
			}
			avoidNodes := map[topo.NodeID]bool{}
			for id := range c.AvoidNodes {
				avoidNodes[id] = true
			}
			for _, n := range rootNodes[:i] {
				avoidNodes[n] = true
			}

			spur, err := refShortestPath(g, spurNode, dst, m, Constraints{
				AvoidLinks: avoidLinks,
				AvoidNodes: avoidNodes,
			})
			if err != nil {
				continue
			}
			total := topo.Path{
				Nodes: append(append([]topo.NodeID(nil), rootNodes...), spur.Nodes[1:]...),
				Links: append(append([]topo.LinkID(nil), rootLinks...), spur.Links...),
			}
			if total.Validate(g) != nil {
				continue
			}
			if refContainsPath(paths, total) || refContainsPath(candidates, total) {
				continue
			}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			wa, wb := PathWeight(g, candidates[a], m), PathWeight(g, candidates[b], m)
			if wa != wb {
				return wa < wb
			}
			return candidates[a].String() < candidates[b].String()
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func refDisjointPair(g *topo.Graph, src, dst topo.NodeID, kPrimaries int, m Metric, c Constraints) (primary, backup topo.Path, err error) {
	if kPrimaries <= 0 {
		kPrimaries = 4
	}
	prims, err := refKShortest(g, src, dst, kPrimaries, m, c)
	if err != nil {
		return topo.Path{}, topo.Path{}, err
	}
	best := -1.0
	for _, p := range prims {
		avoid := map[topo.LinkID]bool{}
		for id := range c.AvoidLinks {
			avoid[id] = true
		}
		for _, l := range p.Links {
			avoid[l] = true
		}
		b, err := refShortestPath(g, src, dst, m, Constraints{AvoidLinks: avoid, AvoidNodes: c.AvoidNodes})
		if err != nil {
			continue
		}
		total := PathWeight(g, p, m) + PathWeight(g, b, m)
		if best < 0 || total < best {
			best = total
			primary, backup = p, b
		}
	}
	if best < 0 {
		return topo.Path{}, topo.Path{}, ErrNoPath
	}
	return primary, backup, nil
}

func refChannelUsage(plant *optics.Plant) map[optics.Channel]int {
	usage := make(map[optics.Channel]int)
	for _, l := range plant.Graph().Links() {
		for _, ch := range plant.Spectrum(l.ID).UsedChannels() {
			usage[ch]++
		}
	}
	return usage
}

func refAssignWavelength(plant *optics.Plant, links []topo.LinkID, policy AssignPolicy, rng *sim.Rand) (optics.Channel, error) {
	if len(links) == 0 {
		return 0, fmt.Errorf("rwa: no links to assign a wavelength on")
	}
	free := plant.ContinuityChannels(links)
	if len(free) == 0 {
		return 0, fmt.Errorf("rwa: no common free wavelength on %v", links)
	}
	switch policy {
	case FirstFit:
		return free[0], nil
	case RandomFit:
		if rng == nil {
			return 0, fmt.Errorf("rwa: RandomFit needs a random source")
		}
		return free[rng.Intn(len(free))], nil
	case MostUsed, LeastUsed:
		usage := refChannelUsage(plant)
		best := free[0]
		bestU := usage[best]
		for _, ch := range free[1:] {
			u := usage[ch]
			if (policy == MostUsed && u > bestU) || (policy == LeastUsed && u < bestU) {
				best, bestU = ch, u
			}
		}
		return best, nil
	default:
		return 0, fmt.Errorf("rwa: unknown policy %v", policy)
	}
}

// refFindRoute is the seed's eager FindRoute: all k paths first, then the
// first that plans and assigns. It also reports which path won, counting
// from 1 (0 when none did).
func refFindRoute(plant *optics.Plant, src, dst topo.NodeID, opt Options) (Route, int, error) {
	g := plant.Graph()
	k := opt.K
	if k <= 0 {
		k = 4
	}
	cons := opt.Constraints
	if down := plant.DownLinks(); len(down) > 0 {
		avoid := make(map[topo.LinkID]bool, len(opt.Constraints.AvoidLinks)+len(down))
		for id := range opt.Constraints.AvoidLinks {
			avoid[id] = true
		}
		for _, id := range down {
			avoid[id] = true
		}
		cons = Constraints{AvoidLinks: avoid, AvoidNodes: opt.Constraints.AvoidNodes}
	}
	paths, err := refKShortest(g, src, dst, k, ByHops, cons)
	if err != nil {
		return Route{}, 0, err
	}
	var lastErr error
	reach := plant.ReachFor(opt.Rate)
	for i, p := range paths {
		plan, err := optics.PlanRegens(g, p, reach)
		if err != nil {
			lastErr = err
			continue
		}
		channels := make([]optics.Channel, 0, len(plan.Segments))
		ok := true
		for _, seg := range plan.Segments {
			ch, err := refAssignWavelength(plant, seg.Links, opt.Policy, opt.Rand)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			channels = append(channels, ch)
		}
		if ok {
			return Route{Path: p, Plan: plan, Channels: channels}, i + 1, nil
		}
	}
	if lastErr == nil {
		lastErr = ErrNoPath
	}
	return Route{}, 0, fmt.Errorf("rwa: no assignable route %s->%s: %w", src, dst, lastErr)
}

// ---- equivalence over seeded random topologies ----

type eqTopo struct {
	name string
	g    *topo.Graph
}

func equivalenceTopologies(t testing.TB) []eqTopo {
	t.Helper()
	out := []eqTopo{
		{"testbed", topo.Testbed()},
		{"backbone", topo.Backbone()},
	}
	ring, err := topo.Ring(12, 250)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, eqTopo{"ring12", ring})
	grid, err := topo.Grid(6, 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, eqTopo{"grid36", grid})
	for _, seed := range []int64{1, 2, 3} {
		g, err := topo.Continental(40, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, eqTopo{fmt.Sprintf("continental40-s%d", seed), g})
	}
	return out
}

// randConstraints builds a random avoid set that still leaves src/dst alone.
func randConstraints(rng *sim.Rand, g *topo.Graph, src, dst topo.NodeID) Constraints {
	var c Constraints
	if rng.Intn(2) == 0 {
		return c
	}
	c.AvoidLinks = map[topo.LinkID]bool{}
	for _, l := range g.Links() {
		if rng.Intn(10) == 0 {
			c.AvoidLinks[l.ID] = true
		}
	}
	c.AvoidNodes = map[topo.NodeID]bool{}
	for _, n := range g.Nodes() {
		if n.ID != src && n.ID != dst && rng.Intn(12) == 0 {
			c.AvoidNodes[n.ID] = true
		}
	}
	return c
}

func samePathErr(t *testing.T, what string, got topo.Path, gotErr error, want topo.Path, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, ErrNoPath) != errors.Is(gotErr, ErrNoPath) {
			t.Fatalf("%s: err = %v, reference err = %v", what, gotErr, wantErr)
		}
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s: path = %s, reference = %s", what, got, want)
	}
}

func TestCompiledEngineEquivalence(t *testing.T) {
	for _, tc := range equivalenceTopologies(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			nodes := g.Nodes()
			rng := sim.NewRand(42)
			for trial := 0; trial < 60; trial++ {
				src := nodes[rng.Intn(len(nodes))].ID
				dst := nodes[rng.Intn(len(nodes))].ID
				if src == dst {
					continue
				}
				m := Metric(rng.Intn(2))
				c := randConstraints(rng, g, src, dst)

				gp, gerr := shortestPath(g, src, dst, m, c)
				rp, rerr := refShortestPath(g, src, dst, m, c)
				samePathErr(t, fmt.Sprintf("ShortestPath %s->%s %v", src, dst, m), gp, gerr, rp, rerr)

				k := 1 + rng.Intn(8)
				gks, gerr := KShortest(g, src, dst, k, m, c)
				rks, rerr := refKShortest(g, src, dst, k, m, c)
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("KShortest %s->%s k=%d: err %v vs ref %v", src, dst, k, gerr, rerr)
				}
				if gerr == nil {
					if len(gks) != len(rks) {
						t.Fatalf("KShortest %s->%s k=%d: %d paths vs ref %d", src, dst, k, len(gks), len(rks))
					}
					for i := range gks {
						if !gks[i].Equal(rks[i]) {
							t.Fatalf("KShortest %s->%s k=%d path[%d]: %s vs ref %s", src, dst, k, i, gks[i], rks[i])
						}
					}
				}

				gp1, gb1, gerr := DisjointPair(g, src, dst, 4, m, c)
				rp1, rb1, rerr := refDisjointPair(g, src, dst, 4, m, c)
				samePathErr(t, fmt.Sprintf("DisjointPair-primary %s->%s", src, dst), gp1, gerr, rp1, rerr)
				if gerr == nil {
					samePathErr(t, fmt.Sprintf("DisjointPair-backup %s->%s", src, dst), gb1, gerr, rb1, rerr)
				}
			}
		})
	}
}

// TestFindRouteMatchesEager holds the lazy FindRoute to the seed's eager one
// on loaded plants: random down links, spectrum pre-filled link by link (some
// links full, the rest at a random load), random constraints, K from 1 to 6
// and every policy. Route, channels, error text and RandomFit's draws must all
// agree, and the cases must include wins by a later path and refusals.
func TestFindRouteMatchesEager(t *testing.T) {
	var firstWins, laterWins, refusals int
	for _, tc := range equivalenceTopologies(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			nodes := g.Nodes()
			cfg := optics.DefaultConfig()
			cfg.ReachByRate = map[bw.Rate]float64{bw.Rate40G: 1200}
			rng := sim.NewRand(31)
			for trial := 0; trial < 60; trial++ {
				plant, err := optics.NewPlant(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				load := rng.Float64() * 0.6
				for _, l := range g.Links() {
					if rng.Intn(16) == 0 {
						plant.SetLinkUp(l.ID, false)
					}
					full := rng.Intn(5) == 0
					for ch := 1; ch <= cfg.Channels; ch++ {
						if full || rng.Float64() < load {
							if err := plant.Spectrum(l.ID).Reserve(optics.Channel(ch), "bg"); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				src := nodes[rng.Intn(len(nodes))].ID
				dst := nodes[rng.Intn(len(nodes))].ID
				if src == dst {
					continue
				}
				opt := Options{
					K:           1 + rng.Intn(6),
					Policy:      AssignPolicy(rng.Intn(4)),
					Constraints: randConstraints(rng, g, src, dst),
					Rate:        []bw.Rate{bw.Rate10G, bw.Rate40G}[rng.Intn(2)],
				}
				what := fmt.Sprintf("%s->%s k=%d %v %v", src, dst, opt.K, opt.Policy, opt.Rate)
				seed := int64(rng.Intn(1 << 30))
				lazyRand, eagerRand := sim.NewRand(seed), sim.NewRand(seed)

				opt.Rand = lazyRand
				got, gerr := FindRoute(plant, src, dst, opt)
				opt.Rand = eagerRand
				want, won, werr := refFindRoute(plant, src, dst, opt)

				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: err = %v, eager err = %v", what, gerr, werr)
				}
				if werr != nil {
					if gerr.Error() != werr.Error() || errors.Is(gerr, ErrNoPath) != errors.Is(werr, ErrNoPath) {
						t.Fatalf("%s: err = %v, eager err = %v", what, gerr, werr)
					}
					if strings.Contains(werr.Error(), "no assignable route") {
						refusals++
					}
				} else {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: route = %s %v, eager = %s %v", what, got.Path, got.Channels, want.Path, want.Channels)
					}
					if won == 1 {
						firstWins++
					} else {
						laterWins++
					}
				}
				if a, b := lazyRand.Intn(1<<30), eagerRand.Intn(1<<30); a != b {
					t.Fatalf("%s: random sources out of step after the search", what)
				}
			}
		})
	}
	if laterWins == 0 || refusals == 0 {
		t.Fatalf("vacuous: %d wins by a path after the first, %d refusals", laterWins, refusals)
	}
	t.Logf("wins by the first path %d, by a later one %d; refusals %d", firstWins, laterWins, refusals)
}

// TestAssignEquivalence drives the bitset spectra + incremental usage
// counters against the seed's map-scanning policies over a random
// reserve/release workload.
func TestAssignEquivalence(t *testing.T) {
	g := topo.Backbone()
	cfg := optics.DefaultConfig()
	plant, err := optics.NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := g.Links()
	rng := sim.NewRand(7)
	var held []struct {
		link topo.LinkID
		ch   optics.Channel
	}
	for step := 0; step < 400; step++ {
		// Random churn on the spectra.
		l := links[rng.Intn(len(links))].ID
		ch := optics.Channel(1 + rng.Intn(cfg.Channels))
		if plant.Spectrum(l).Owner(ch) == "" {
			if err := plant.Spectrum(l).Reserve(ch, "eq"); err != nil {
				t.Fatal(err)
			}
			held = append(held, struct {
				link topo.LinkID
				ch   optics.Channel
			}{l, ch})
		} else if len(held) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(held))
			if plant.Spectrum(held[i].link).Owner(held[i].ch) == "eq" {
				if err := plant.Spectrum(held[i].link).Release(held[i].ch); err != nil {
					t.Fatal(err)
				}
				held = append(held[:i], held[i+1:]...)
			}
		}
		// Usage counters must equal a full rescan at every step.
		usage := refChannelUsage(plant)
		for ch := 1; ch <= cfg.Channels; ch++ {
			if got, want := plant.ChannelUsage(optics.Channel(ch)), usage[optics.Channel(ch)]; got != want {
				t.Fatalf("step %d: usage[%d] = %d, rescan = %d", step, ch, got, want)
			}
		}
		if step%20 != 0 {
			continue
		}
		// Policy selections must match the reference on a random segment.
		src := links[rng.Intn(len(links))].A
		dst := links[rng.Intn(len(links))].B
		if src == dst {
			continue
		}
		p, err := shortestPath(g, src, dst, ByHops, Constraints{})
		if err != nil {
			continue
		}
		for _, pol := range []AssignPolicy{FirstFit, MostUsed, LeastUsed} {
			got, gerr := AssignWavelength(plant, p.Links, pol, nil)
			want, werr := refAssignWavelength(plant, p.Links, pol, nil)
			if (gerr == nil) != (werr == nil) || got != want {
				t.Fatalf("step %d: %v on %v = (%d, %v), reference (%d, %v)", step, pol, p.Links, got, gerr, want, werr)
			}
		}
		r1, r2 := sim.NewRand(int64(step)), sim.NewRand(int64(step))
		got, gerr := AssignWavelength(plant, p.Links, RandomFit, r1)
		want, werr := refAssignWavelength(plant, p.Links, RandomFit, r2)
		if (gerr == nil) != (werr == nil) || got != want {
			t.Fatalf("step %d: random-fit = (%d, %v), reference (%d, %v)", step, got, gerr, want, werr)
		}
		// And the continuity list itself must be identical.
		gotFree := plant.ContinuityChannels(p.Links)
		spectra := make([]*optics.Spectrum, len(p.Links))
		for i, id := range p.Links {
			spectra[i] = plant.Spectrum(id)
		}
		wantFree := optics.IntersectFree(spectra)
		if len(gotFree) != len(wantFree) {
			t.Fatalf("step %d: continuity %v vs %v", step, gotFree, wantFree)
		}
		for i := range gotFree {
			if gotFree[i] != wantFree[i] {
				t.Fatalf("step %d: continuity %v vs %v", step, gotFree, wantFree)
			}
		}
	}
}

// ---- golden fixtures ----

type goldenCase struct {
	Topo   string   `json:"topo"`
	Src    string   `json:"src"`
	Dst    string   `json:"dst"`
	Metric string   `json:"metric"`
	K      int      `json:"k"`
	Paths  []string `json:"paths"`             // KShortest result, in order
	Prim   string   `json:"primary,omitempty"` // DisjointPair
	Back   string   `json:"backup,omitempty"`
}

func goldenTopo(t *testing.T, name string) *topo.Graph {
	t.Helper()
	for _, tc := range equivalenceTopologies(t) {
		if tc.name == name {
			return tc.g
		}
	}
	t.Fatalf("unknown golden topology %s", name)
	return nil
}

func goldenMetric(t *testing.T, s string) Metric {
	t.Helper()
	switch s {
	case "hops":
		return ByHops
	case "km":
		return ByKM
	}
	t.Fatalf("unknown metric %q", s)
	return ByHops
}

func TestGoldenRoutes(t *testing.T) {
	path := filepath.Join("testdata", "golden_routes.json")
	if *update {
		var cases []goldenCase
		for _, tc := range equivalenceTopologies(t) {
			nodes := tc.g.Nodes()
			rng := sim.NewRand(99)
			for trial := 0; trial < 8; trial++ {
				src := nodes[rng.Intn(len(nodes))].ID
				dst := nodes[rng.Intn(len(nodes))].ID
				if src == dst {
					continue
				}
				for _, m := range []Metric{ByHops, ByKM} {
					k := 2 + rng.Intn(5)
					gc := goldenCase{
						Topo: tc.name, Src: string(src), Dst: string(dst),
						Metric: m.String(), K: k,
					}
					paths, err := refKShortest(tc.g, src, dst, k, m, Constraints{})
					if err != nil {
						continue
					}
					for _, p := range paths {
						gc.Paths = append(gc.Paths, p.String())
					}
					if p, b, err := refDisjointPair(tc.g, src, dst, 4, m, Constraints{}); err == nil {
						gc.Prim, gc.Back = p.String(), b.String()
					}
					cases = append(cases, gc)
				}
			}
		}
		buf, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(cases), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixtures (run go test -run TestGoldenRoutes -update): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topo.Graph{}
	for _, gc := range cases {
		g, ok := graphs[gc.Topo]
		if !ok {
			g = goldenTopo(t, gc.Topo)
			graphs[gc.Topo] = g
		}
		m := goldenMetric(t, gc.Metric)
		paths, err := KShortest(g, topo.NodeID(gc.Src), topo.NodeID(gc.Dst), gc.K, m, Constraints{})
		if err != nil {
			t.Fatalf("%s %s->%s: %v", gc.Topo, gc.Src, gc.Dst, err)
		}
		if len(paths) != len(gc.Paths) {
			t.Fatalf("%s %s->%s k=%d: %d paths, golden %d", gc.Topo, gc.Src, gc.Dst, gc.K, len(paths), len(gc.Paths))
		}
		for i, p := range paths {
			if p.String() != gc.Paths[i] {
				t.Errorf("%s %s->%s k=%d path[%d] = %s, golden %s", gc.Topo, gc.Src, gc.Dst, gc.K, i, p, gc.Paths[i])
			}
		}
		if gc.Prim != "" {
			p, b, err := DisjointPair(g, topo.NodeID(gc.Src), topo.NodeID(gc.Dst), 4, m, Constraints{})
			if err != nil {
				t.Fatalf("%s disjoint %s->%s: %v", gc.Topo, gc.Src, gc.Dst, err)
			}
			if p.String() != gc.Prim || b.String() != gc.Back {
				t.Errorf("%s disjoint %s->%s = (%s, %s), golden (%s, %s)", gc.Topo, gc.Src, gc.Dst, p, b, gc.Prim, gc.Back)
			}
		}
	}
}

// ---- pooled scratch arena race coverage ----

// TestScratchPoolRace hammers the pooled arenas (and the lazy Index build)
// from many goroutines; run under -race this proves searches share nothing.
func TestScratchPoolRace(t *testing.T) {
	g, err := topo.Grid(6, 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shortestPath(g, "G0000", "G0505", ByKM, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh graph so the concurrent searches also race on the first
	// Index() build.
	g2, err := topo.Grid(6, 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					p, err := shortestPath(g2, "G0000", "G0505", ByKM, Constraints{})
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if !p.Equal(want) {
						t.Errorf("worker %d: path %s, want %s", w, p, want)
						return
					}
				case 1:
					if _, err := KShortest(g2, "G0000", "G0505", 4, ByHops, Constraints{}); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				case 2:
					if _, _, err := DisjointPair(g2, "G0000", "G0505", 3, ByHops, Constraints{}); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIndexInvalidation checks that topology mutation rebuilds the compiled
// view: a shortcut link added after the first search must be picked up.
func TestIndexInvalidation(t *testing.T) {
	g := topo.New()
	for _, n := range []topo.NodeID{"A", "B", "C"} {
		if err := g.AddNode(topo.Node{ID: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(topo.Link{ID: "A-B", A: "A", B: "B", KM: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(topo.Link{ID: "B-C", A: "B", B: "C", KM: 10}); err != nil {
		t.Fatal(err)
	}
	p, err := shortestPath(g, "A", "C", ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 {
		t.Fatalf("before shortcut: %s", p)
	}
	if err := g.AddLink(topo.Link{ID: "A-C", A: "A", B: "C", KM: 10}); err != nil {
		t.Fatal(err)
	}
	p, err = shortestPath(g, "A", "C", ByHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 1 || p.String() != "A-C" {
		t.Fatalf("after shortcut: %s", p)
	}
}
