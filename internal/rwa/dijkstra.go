// Package rwa implements routing and wavelength assignment for the DWDM
// layer: shortest and k-shortest path search, link-disjoint path pairs (for
// 1+1 protection and bridge-and-roll), and wavelength-assignment policies
// honouring the wavelength-continuity constraint between regeneration points.
//
// Path search runs on the compiled integer-indexed view of the topology
// (topo.Index) with pooled scratch arenas — see compiled.go — and converts
// back to topo.Path only at the API boundary.
package rwa

import (
	"errors"
	"fmt"

	"griphon/internal/topo"
)

// Metric selects the edge weight used by path search.
type Metric int

const (
	// ByHops minimizes the number of fiber links (what the prototype's
	// Table 2 varies).
	ByHops Metric = iota
	// ByKM minimizes total span length and therefore latency.
	ByKM
)

func (m Metric) String() string {
	switch m {
	case ByHops:
		return "hops"
	case ByKM:
		return "km"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ErrNoPath is returned when the destination is unreachable under the given
// constraints.
var ErrNoPath = errors.New("rwa: no path")

// Constraints restricts path search. The zero value imposes nothing.
type Constraints struct {
	// AvoidLinks are links the path must not traverse (failed fibers,
	// links of the path being protected, maintenance targets).
	AvoidLinks map[topo.LinkID]bool
	// AvoidNodes are nodes the path must not visit (the endpoints are
	// always allowed).
	AvoidNodes map[topo.NodeID]bool
}

// PathWeight returns the path's total weight under the metric.
func PathWeight(g *topo.Graph, p topo.Path, m Metric) float64 {
	var w float64
	for _, id := range p.Links {
		if l := g.Link(id); l != nil {
			if m == ByKM {
				w += l.KM
			} else {
				w++
			}
		}
	}
	return w
}

// PropagationDelay returns the one-way light propagation delay of the path,
// at ~4.9 microseconds per fiber kilometre.
func PropagationDelay(g *topo.Graph, p topo.Path) float64 {
	return p.KM(g) * 4.9e-6 // seconds
}
