package optics

import (
	"fmt"

	"griphon/internal/topo"
)

// Segment is a transparent stretch of a path: the light crosses its links on
// a single wavelength without OEO conversion. Consecutive segments meet at a
// regeneration node.
type Segment struct {
	Links []topo.LinkID
	KM    float64
}

// RegenPlan describes how a path is split to respect optical reach.
type RegenPlan struct {
	// Segments covers the path's links in order.
	Segments []Segment
	// RegenNodes are the intermediate nodes where regeneration happens,
	// one fewer than len(Segments); empty when the whole path is
	// transparent.
	RegenNodes []topo.NodeID
}

// PlanRegens splits path into transparent segments no longer than reachKM,
// placing regenerators greedily at the latest node that keeps each segment
// within reach (the standard first-fit regenerator placement). It fails if a
// single span already exceeds reach — no regenerator placement can fix that.
func PlanRegens(g *topo.Graph, path topo.Path, reachKM float64) (RegenPlan, error) {
	if err := path.Validate(g); err != nil {
		return RegenPlan{}, err
	}
	if reachKM <= 0 {
		return RegenPlan{}, fmt.Errorf("optics: non-positive reach %.1f", reachKM)
	}
	var plan RegenPlan
	var cur Segment
	for i, lid := range path.Links {
		km := g.Link(lid).KM
		if km > reachKM {
			return RegenPlan{}, fmt.Errorf("optics: span %s (%.0f km) exceeds optical reach (%.0f km)", lid, km, reachKM)
		}
		if cur.KM+km > reachKM {
			// Terminate the current segment at the node before this
			// link and regenerate there.
			plan.Segments = append(plan.Segments, cur)
			plan.RegenNodes = append(plan.RegenNodes, path.Nodes[i])
			cur = Segment{}
		}
		cur.Links = append(cur.Links, lid)
		cur.KM += km
	}
	plan.Segments = append(plan.Segments, cur)
	return plan, nil
}
