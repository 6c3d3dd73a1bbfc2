package core

import (
	"fmt"
	"strings"

	"griphon/internal/topo"
)

// Stats is a point-in-time snapshot of controller and network state, feeding
// the customer GUI, the HTTP API and the benchmark harness.
type Stats struct {
	// Connection counts by state (customer connections only).
	Pending, Active, Down, Restoring, Released int
	// InternalConns counts carrier-owned pipe wavelengths.
	InternalConns int
	// ChannelsInUse is the total number of (link, wavelength) pairs
	// occupied across the plant.
	ChannelsInUse int
	// OTsInUse / OTsTotal pool occupancy across all nodes.
	OTsInUse, OTsTotal int
	// RegensInUse / RegensTotal pool occupancy.
	RegensInUse, RegensTotal int
	// Pipes and OTN slot occupancy.
	Pipes, SlotsInUse, SlotsTotal int
	// DownLinks lists failed fibers.
	DownLinks []topo.LinkID
	// Events is the audit log length.
	Events int
}

// Snapshot computes current statistics.
func (c *Controller) Snapshot() Stats {
	s := Stats{Released: c.conns.released, InternalConns: c.conns.internal}
	for _, conn := range c.conns.live {
		if conn.Internal {
			continue
		}
		switch conn.State {
		case StatePending:
			s.Pending++
		case StateActive:
			s.Active++
		case StateDown:
			s.Down++
		case StateRestoring:
			s.Restoring++
		}
	}
	// Topology elements added after plant construction carry no devices yet;
	// the plant accessors return nil for them.
	for _, l := range c.g.Links() {
		if sp := c.plant.Spectrum(l.ID); sp != nil {
			s.ChannelsInUse += sp.Used()
		}
	}
	for _, n := range c.g.Nodes() {
		if b := c.plant.OTs(n.ID); b != nil {
			s.OTsInUse += b.InUse()
			s.OTsTotal += b.Total()
		}
		if b := c.plant.Regens(n.ID); b != nil {
			s.RegensInUse += b.InUse()
			s.RegensTotal += b.Total()
		}
	}
	for _, p := range c.fabric.Pipes() {
		s.Pipes++
		s.SlotsInUse += p.UsedSlots()
		s.SlotsTotal += p.TotalSlots()
	}
	s.DownLinks = c.plant.DownLinks()
	s.Events = c.events.len()
	return s
}

func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conns: %d active, %d pending, %d down, %d restoring, %d released (%d internal)\n",
		s.Active, s.Pending, s.Down, s.Restoring, s.Released, s.InternalConns)
	fmt.Fprintf(&b, "plant: %d channel-links, OTs %d/%d, regens %d/%d\n",
		s.ChannelsInUse, s.OTsInUse, s.OTsTotal, s.RegensInUse, s.RegensTotal)
	fmt.Fprintf(&b, "otn: %d pipes, slots %d/%d\n", s.Pipes, s.SlotsInUse, s.SlotsTotal)
	if len(s.DownLinks) > 0 {
		fmt.Fprintf(&b, "down links: %v\n", s.DownLinks)
	}
	return b.String()
}
