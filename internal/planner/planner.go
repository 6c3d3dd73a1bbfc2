// Package planner implements the paper's §4 "network resource planning"
// challenge: with dynamic services, the carrier must decide ahead of time
// where and how many spare resources (especially transponders) to deploy.
// Unlike POTS trunk planning, "the number of users is smaller and the cost of
// a line is far greater, making accurate planning far more critical" — so the
// planner works from an explicit per-pair demand forecast, sizes each node's
// transponder pool with the Erlang-B inverse for a target blocking
// probability, and adds restoration headroom.
package planner

import (
	"fmt"
	"math"
	"sort"

	"griphon/internal/topo"
)

// ErlangB returns the blocking probability of offered load (erlangs) on n
// servers, via the numerically stable recurrence.
func ErlangB(n int, erlangs float64) float64 {
	if n < 0 || erlangs < 0 {
		return 1
	}
	if erlangs == 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= n; k++ {
		b = erlangs * b / (float64(k) + erlangs*b)
	}
	return b
}

// ServersFor returns the smallest server count whose Erlang-B blocking is at
// most target for the offered load. target must be in (0,1).
func ServersFor(erlangs, target float64) (int, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("planner: target blocking %v outside (0,1)", target)
	}
	if erlangs < 0 {
		return 0, fmt.Errorf("planner: negative load %v", erlangs)
	}
	if erlangs == 0 {
		return 0, nil
	}
	for n := 1; ; n++ {
		if ErlangB(n, erlangs) <= target {
			return n, nil
		}
		if n > 1_000_000 {
			return 0, fmt.Errorf("planner: load %v needs implausibly many servers", erlangs)
		}
	}
}

// Demand is a per-site-pair offered load forecast in erlangs of wavelength
// connections (mean simultaneous connections requested).
type Demand map[[2]topo.SiteID]float64

// Set records the load for a pair (order-insensitive).
func (d Demand) Set(a, b topo.SiteID, erlangs float64) {
	d[canonPair(a, b)] = erlangs
}

func canonPair(a, b topo.SiteID) [2]topo.SiteID {
	if b < a {
		a, b = b, a
	}
	return [2]topo.SiteID{a, b}
}

// Total returns the summed offered load.
func (d Demand) Total() float64 {
	var t float64
	for _, v := range d {
		t += v
	}
	return t
}

// Grow returns the forecast scaled for `years` ahead given a doubling period
// (the paper cites Forrester projecting inter-DC transport demand to "double
// or triple in the next two to four years": a 2-year doubling period is the
// aggressive end).
func (d Demand) Grow(years, doublingYears float64) Demand {
	if doublingYears <= 0 {
		doublingYears = 2
	}
	factor := math.Pow(2, years/doublingYears)
	out := make(Demand, len(d))
	for k, v := range d {
		out[k] = v * factor
	}
	return out
}

// NodeLoad aggregates pair demand onto home PoPs: every connection consumes a
// transponder at both endpoints' home nodes.
func NodeLoad(g *topo.Graph, d Demand) (map[topo.NodeID]float64, error) {
	out := map[topo.NodeID]float64{}
	for pair, erl := range d {
		if erl < 0 {
			return nil, fmt.Errorf("planner: negative demand for %v", pair)
		}
		for _, sid := range pair {
			s := g.Site(sid)
			if s == nil {
				return nil, fmt.Errorf("planner: unknown site %s", sid)
			}
			out[s.Home] += erl
		}
	}
	return out, nil
}

// Plan is the planner's output for one node.
type Plan struct {
	Node topo.NodeID
	// OfferedErlangs is the forecast load terminating at this node.
	OfferedErlangs float64
	// WorkingOTs is the Erlang-B pool size for the blocking target.
	WorkingOTs int
	// RestorationOTs is the extra headroom for failure re-provisioning.
	RestorationOTs int
	// Blocking is the predicted blocking with WorkingOTs installed.
	Blocking float64
}

// Total returns the full recommended pool.
func (p Plan) Total() int { return p.WorkingOTs + p.RestorationOTs }

// PlanOTs sizes every node's transponder pool for the demand forecast:
// Erlang-B inverse at the blocking target, plus restoration headroom —
// restorationShare of the working pool, rounded up (the shared-pool
// alternative to 1+1 doubling that makes GRIPhoN restoration "far less
// expensive", paper §1).
func PlanOTs(g *topo.Graph, d Demand, targetBlocking, restorationShare float64) ([]Plan, error) {
	if restorationShare < 0 {
		return nil, fmt.Errorf("planner: negative restoration share")
	}
	loads, err := NodeLoad(g, d)
	if err != nil {
		return nil, err
	}
	nodes := make([]topo.NodeID, 0, len(loads))
	for n := range loads {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	out := make([]Plan, 0, len(nodes))
	for _, n := range nodes {
		erl := loads[n]
		working, err := ServersFor(erl, targetBlocking)
		if err != nil {
			return nil, err
		}
		out = append(out, Plan{
			Node:           n,
			OfferedErlangs: erl,
			WorkingOTs:     working,
			RestorationOTs: int(math.Ceil(float64(working) * restorationShare)),
			Blocking:       ErlangB(working, erl),
		})
	}
	return out, nil
}
