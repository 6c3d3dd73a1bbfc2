package griphon

import (
	"griphon/internal/topo"
)

// Topology describes the carrier's fiber plant and the customer sites
// attached to it. Build one with NewTopology or use the prebuilt Testbed and
// Backbone.
type Topology struct {
	g *topo.Graph
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{g: topo.New()} }

// AddPoP adds a core point of presence hosting a ROADM; hasOTN adds an OTN
// switch for sub-wavelength grooming.
func (t *Topology) AddPoP(id string, hasOTN bool) error {
	return t.g.AddNode(topo.Node{ID: topo.NodeID(id), HasOTN: hasOTN})
}

// AddFiber adds a bidirectional fiber pair between two PoPs with the given
// span length in kilometres.
func (t *Topology) AddFiber(id, a, b string, km float64) error {
	return t.g.AddLink(topo.Link{ID: topo.LinkID(id), A: topo.NodeID(a), B: topo.NodeID(b), KM: km})
}

// AddSite attaches a data-center site to its home PoP through a dedicated
// access pipe of the given capacity in Gb/s.
func (t *Topology) AddSite(id, homePoP string, accessGbps float64) error {
	return t.g.AddSite(topo.Site{ID: topo.SiteID(id), Home: topo.NodeID(homePoP), AccessGbps: accessGbps})
}

// Validate checks the topology is connected and well formed.
func (t *Topology) Validate() error { return t.g.Validate() }

// PoPs returns the PoP IDs in sorted order.
func (t *Topology) PoPs() []string {
	var out []string
	for _, n := range t.g.Nodes() {
		out = append(out, string(n.ID))
	}
	return out
}

// Sites returns the site IDs in sorted order.
func (t *Topology) Sites() []string {
	var out []string
	for _, s := range t.g.Sites() {
		out = append(out, string(s.ID))
	}
	return out
}

// Fibers returns the fiber link IDs in sorted order.
func (t *Topology) Fibers() []string {
	var out []string
	for _, l := range t.g.Links() {
		out = append(out, string(l.ID))
	}
	return out
}

// Testbed returns the paper's Fig. 4 laboratory topology: four ROADMs (two
// 3-degree, two 2-degree) and three customer premises DC-A (PoP I), DC-B
// (PoP III) and DC-C (PoP IV).
func Testbed() *Topology { return &Topology{g: topo.Testbed()} }

// Backbone returns an NSFNET-like 14-node continental US backbone with six
// data-center sites, for experiments needing more scale than the testbed.
func Backbone() *Topology { return &Topology{g: topo.Backbone()} }

// Continental generates a random continental-scale mesh (Gabriel graph over
// n PoPs, CONUS-sized plane) with the given number of well-separated
// data-center sites. Deterministic per seed.
func Continental(n, sites int, seed int64) (*Topology, error) {
	g, err := topo.Continental(n, sites, seed)
	if err != nil {
		return nil, err
	}
	return &Topology{g: g}, nil
}
