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
// it searches the K shortest fiber paths (skipping failed links), splits each
// by optical reach, and tries to assign a wavelength to every transparent
// segment. The first path that fully assigns wins — so a shorter path that is
// wavelength-blocked is passed over for a longer one that is not, which is
// exactly the behaviour a carrier's RWA exhibits under load.
func FindRoute(plant *optics.Plant, src, dst topo.NodeID, opt Options) (Route, error) {
	g := plant.Graph()
	k := opt.K
	if k <= 0 {
		k = 4
	}

	// Merge failed links into the avoid set. With no failures the caller's
	// constraints pass through untouched (KShortest never mutates them).
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

	paths, err := KShortest(g, src, dst, k, ByHops, cons)
	if err != nil {
		return Route{}, err
	}

	var lastErr error
	reach := plant.ReachFor(opt.Rate)
	for _, p := range paths {
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
	if lastErr == nil {
		lastErr = ErrNoPath
	}
	return Route{}, fmt.Errorf("rwa: no assignable route %s->%s: %w", src, dst, lastErr)
}
