package rwa

import (
	"fmt"

	"griphon/internal/bw"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Route is a fully resolved lightpath: the fiber path, its split into
// transparent segments (with regeneration nodes), and the wavelength chosen
// for each segment.
type Route struct {
	Path topo.Path
	Plan optics.RegenPlan
	// Channels holds one wavelength per segment of Plan, in order.
	Channels []optics.Channel
}

// Options tunes FindRoute, which always ranks paths by hop count. The zero
// value means: 4 candidate paths, first-fit assignment, no extra constraints.
type Options struct {
	// K caps how many paths FindRoute tries. It is a bound, not a cost:
	// each path is searched for only once the one before it failed to plan
	// or assign.
	K      int
	Policy AssignPolicy
	// Constraints restricts the fiber path; failed links are always
	// avoided regardless.
	Constraints Constraints
	// Rand is required when Policy is RandomFit.
	Rand *sim.Rand
	// Rate selects the line rate whose optical reach governs regeneration
	// planning (zero uses the plant's default reach).
	Rate bw.Rate
}

// FindRoute computes a lightpath from src to dst through the photonic plant:
// it takes the shortest fiber paths one at a time (skipping failed links),
// splits each by optical reach, and tries to assign a wavelength to every
// transparent segment. The first path that fully assigns wins — so a shorter
// path that is wavelength-blocked is passed over for a longer one that is
// not, which is exactly the behaviour a carrier's RWA exhibits under load.
// A path is searched for only when every path before it has failed, so an
// unloaded plant costs one Dijkstra whatever K is; the paths tried are the
// first K that KShortest returns, in its order.
func FindRoute(plant *optics.Plant, src, dst topo.NodeID, opt Options) (Route, error) {
	g := plant.Graph()
	k := opt.K
	if k <= 0 {
		k = 4
	}
	ix := g.Index()
	si, di, err := endpoints(ix, src, dst)
	if err != nil {
		return Route{}, err
	}

	s := getScratch(ix.NumNodes(), ix.NumLinks())
	defer putScratch(s)
	s.applyConstraints(ix, opt.Constraints)
	for _, id := range plant.DownLinks() {
		if li, ok := ix.LinkIndex(id); ok {
			s.avoidLink[li] = true
		}
	}

	y := yen{ix: ix, s: s, src: si, dst: di, m: ByHops}
	var lastErr error
	reach := plant.ReachFor(opt.Rate)
	for tried := 0; tried < k; tried++ {
		ip, more := y.next()
		if !more {
			if tried == 0 {
				return Route{}, ErrNoPath
			}
			break
		}
		p := ip.toPath(ix)
		plan, err := optics.PlanRegens(g, p, reach)
		if err != nil {
			lastErr = err
			continue
		}
		channels := make([]optics.Channel, 0, len(plan.Segments))
		ok := true
		for _, seg := range plan.Segments {
			ch, err := AssignWavelength(plant, seg.Links, opt.Policy, opt.Rand)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			channels = append(channels, ch)
		}
		if ok {
			return Route{Path: p, Plan: plan, Channels: channels}, nil
		}
	}
	return Route{}, fmt.Errorf("rwa: no assignable route %s->%s: %w", src, dst, lastErr)
}
