package rwa

import (
	"fmt"
	"sort"

	"griphon/internal/topo"
)

// ipath is a path in the compiled engine's integer domain. weight caches the
// path's total weight, computed once when the path is generated (the seed
// implementation recomputed it — and the path's string form — inside every
// sort comparison).
type ipath struct {
	nodes  []int32
	links  []int32
	weight float64
}

func (p ipath) toPath(ix *topo.Index) topo.Path {
	out := topo.Path{
		Nodes: make([]topo.NodeID, len(p.nodes)),
		Links: make([]topo.LinkID, len(p.links)),
	}
	for i, n := range p.nodes {
		out.Nodes[i] = ix.NodeIDAt(n)
	}
	for i, l := range p.links {
		out.Links[i] = ix.LinkIDAt(l)
	}
	return out
}

// lessNodeSeq orders node-index sequences lexicographically. Because node
// indices follow sorted-NodeID order and '-' sorts below every ID character,
// this is exactly the order of the "A-B-C" joined strings the seed
// implementation compared.
func lessNodeSeq(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func ipathEqual(a, b ipath) bool {
	if len(a.nodes) != len(b.nodes) || len(a.links) != len(b.links) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.links {
		if a.links[i] != b.links[i] {
			return false
		}
	}
	return true
}

func containsIpath(ps []ipath, q ipath) bool {
	for _, p := range ps {
		if ipathEqual(p, q) {
			return true
		}
	}
	return false
}

func sharesRootIdx(p ipath, rootNodes, rootLinks []int32) bool {
	if len(p.nodes) < len(rootNodes) || len(p.links) < len(rootLinks) {
		return false
	}
	for i, n := range rootNodes {
		if p.nodes[i] != n {
			return false
		}
	}
	for i, l := range rootLinks {
		if p.links[i] != l {
			return false
		}
	}
	return true
}

// yen enumerates the loop-free paths from src to dst in Yen's order: weight
// first, then node sequence. next runs only the searches the path it returns
// needs — one Dijkstra for the first path, one spur search per node of the
// previous path for each later one — so a caller that stops early pays for
// nothing it did not take. Path i+1 is built from paths 1..i and the
// candidates they produced alone, so the first k paths are the same list, in
// the same order, however many are asked for.
//
// The arena's avoid sets must hold the caller's base constraints. A spur
// search marks its temporary additions there and rolls them back when it is
// done, so between calls the arena holds exactly the base constraints again
// and the caller may run its own searches on it.
type yen struct {
	ix       *topo.Index
	s        *scratch
	src, dst int32
	m        Metric

	paths      []ipath // returned so far, in order
	candidates []ipath // found by spur searches, not yet returned

	// avoid bits the current spur search set, for rollback.
	addedLinks, addedNodes []int32
}

// next returns the next path, or false when there is none.
func (y *yen) next() (ipath, bool) {
	if len(y.paths) == 0 {
		if !dijkstra(y.ix, y.src, y.dst, y.m, y.s) {
			return ipath{}, false
		}
		n0, l0 := y.s.extractPath(y.src, y.dst)
		first := ipath{
			nodes:  append([]int32(nil), n0...),
			links:  append([]int32(nil), l0...),
			weight: pathWeightIdx(y.ix, l0, y.m),
		}
		y.paths = append(y.paths, first)
		return first, true
	}
	y.spur(y.paths[len(y.paths)-1])
	if len(y.candidates) == 0 {
		return ipath{}, false
	}
	sort.Slice(y.candidates, func(a, b int) bool {
		ca, cb := y.candidates[a], y.candidates[b]
		if ca.weight != cb.weight {
			return ca.weight < cb.weight
		}
		return lessNodeSeq(ca.nodes, cb.nodes)
	})
	p := y.candidates[0]
	y.paths = append(y.paths, p)
	y.candidates = y.candidates[1:]
	return p, true
}

// spur branches off every node of prev but the last and adds each new
// loop-free path it finds to the candidates.
func (y *yen) spur(prev ipath) {
	s := y.s
	for i := 0; i < len(prev.nodes)-1; i++ {
		spurNode := prev.nodes[i]
		rootNodes := prev.nodes[:i+1]
		rootLinks := prev.links[:i]

		// Remove the links that returned paths (and pending candidates)
		// take out of this same root, so the spur diverges.
		for _, p := range y.paths {
			if sharesRootIdx(p, rootNodes, rootLinks) && i < len(p.links) {
				y.avoidLink(p.links[i])
			}
		}
		for _, cand := range y.candidates {
			if sharesRootIdx(cand, rootNodes, rootLinks) && i < len(cand.links) {
				y.avoidLink(cand.links[i])
			}
		}
		// Exclude root nodes (other than the spur node) so the total path
		// stays loop-free.
		for _, n := range rootNodes[:i] {
			y.avoidNode(n)
		}

		ok := dijkstra(y.ix, spurNode, y.dst, y.m, s)
		y.rollback()
		if !ok {
			continue
		}
		spurNodes, spurLinks := s.extractPath(spurNode, y.dst)
		total := ipath{
			nodes: append(append(make([]int32, 0, len(rootNodes)+len(spurNodes)-1), rootNodes...), spurNodes[1:]...),
			links: append(append(make([]int32, 0, len(rootLinks)+len(spurLinks)), rootLinks...), spurLinks...),
		}
		// The spur avoids all strict root nodes and is itself loop-free,
		// so the concatenation is a valid loop-free path by construction
		// (the seed's Validate call could never fire here either).
		if containsIpath(y.paths, total) || containsIpath(y.candidates, total) {
			continue
		}
		total.weight = pathWeightIdx(y.ix, total.links, y.m)
		y.candidates = append(y.candidates, total)
	}
}

func (y *yen) avoidLink(li int32) {
	if !y.s.avoidLink[li] {
		y.s.avoidLink[li] = true
		y.addedLinks = append(y.addedLinks, li)
	}
}

func (y *yen) avoidNode(ni int32) {
	if !y.s.avoidNode[ni] {
		y.s.avoidNode[ni] = true
		y.addedNodes = append(y.addedNodes, ni)
	}
}

func (y *yen) rollback() {
	for _, li := range y.addedLinks {
		y.s.avoidLink[li] = false
	}
	for _, ni := range y.addedNodes {
		y.s.avoidNode[ni] = false
	}
	y.addedLinks = y.addedLinks[:0]
	y.addedNodes = y.addedNodes[:0]
}

// endpoints resolves a search's end points to node indices, refusing
// unknown and equal ones.
func endpoints(ix *topo.Index, src, dst topo.NodeID) (si, di int32, err error) {
	si, ok := ix.NodeIndex(src)
	if !ok {
		return 0, 0, fmt.Errorf("rwa: unknown source %s", src)
	}
	di, ok = ix.NodeIndex(dst)
	if !ok {
		return 0, 0, fmt.Errorf("rwa: unknown destination %s", dst)
	}
	if src == dst {
		return 0, 0, fmt.Errorf("rwa: source equals destination %s", src)
	}
	return si, di, nil
}

// KShortest returns up to k loop-free paths from src to dst in non-decreasing
// weight order (Yen's algorithm). It returns ErrNoPath if not even one path
// exists.
func KShortest(g *topo.Graph, src, dst topo.NodeID, k int, m Metric, c Constraints) ([]topo.Path, error) {
	if k <= 0 {
		k = 1
	}
	ix := g.Index()
	si, di, err := endpoints(ix, src, dst)
	if err != nil {
		return nil, err
	}

	s := getScratch(ix.NumNodes(), ix.NumLinks())
	defer putScratch(s)
	s.applyConstraints(ix, c)

	y := yen{ix: ix, s: s, src: si, dst: di, m: m}
	var out []topo.Path
	for len(out) < k {
		p, ok := y.next()
		if !ok {
			break
		}
		out = append(out, p.toPath(ix))
	}
	if len(out) == 0 {
		return nil, ErrNoPath
	}
	return out, nil
}

// DisjointPair returns a link-disjoint (primary, backup) path pair with small
// total weight. It tries each of the kPrimaries shortest paths as the
// primary, pairing it with the shortest path avoiding the primary's links,
// and keeps the pair with the lowest combined weight. This removal-based
// heuristic is not always optimal (unlike Suurballe) but finds a pair
// whenever one of the candidate primaries admits one.
func DisjointPair(g *topo.Graph, src, dst topo.NodeID, kPrimaries int, m Metric, c Constraints) (primary, backup topo.Path, err error) {
	if kPrimaries <= 0 {
		kPrimaries = 4
	}
	ix := g.Index()
	si, di, err := endpoints(ix, src, dst)
	if err != nil {
		return topo.Path{}, topo.Path{}, err
	}

	s := getScratch(ix.NumNodes(), ix.NumLinks())
	defer putScratch(s)
	s.applyConstraints(ix, c)

	y := yen{ix: ix, s: s, src: si, dst: di, m: m}
	best := -1.0
	var bestPrim, bestBackup ipath
	for n := 0; n < kPrimaries; n++ {
		p, ok := y.next()
		if !ok {
			break
		}
		// The backup search borrows the enumerator's rollback: between
		// calls to next the arena holds only the base constraints.
		for _, li := range p.links {
			y.avoidLink(li)
		}
		ok = dijkstra(ix, si, di, m, s)
		y.rollback()
		if !ok {
			continue
		}
		bNodes, bLinks := s.extractPath(si, di)
		total := p.weight + pathWeightIdx(ix, bLinks, m)
		if best < 0 || total < best {
			best = total
			bestPrim = p
			bestBackup.nodes = append(bestBackup.nodes[:0], bNodes...)
			bestBackup.links = append(bestBackup.links[:0], bLinks...)
		}
	}
	if best < 0 {
		return topo.Path{}, topo.Path{}, ErrNoPath
	}
	return bestPrim.toPath(ix), bestBackup.toPath(ix), nil
}
