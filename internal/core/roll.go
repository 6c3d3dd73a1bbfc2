package core

import (
	"fmt"

	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// BridgeAndRoll moves an active wavelength connection onto a new,
// resource-disjoint path with almost no traffic hit (paper §2.2 and [34]):
// the full new path (the "bridge") is built while the original still carries
// traffic, then traffic "rolls" in one fast operation, then the old path is
// released. avoid lists links the new path must not use (the maintenance
// target, or nothing for re-grooming). The job completes when the roll is
// done and the old path released.
func (c *Controller) BridgeAndRoll(cust inventory.Customer, id ConnID, avoid map[topo.LinkID]bool) (*sim.Job, error) {
	conn := c.conns.get(id)
	if conn == nil {
		return nil, fmt.Errorf("core: unknown connection %s", id)
	}
	if err := c.ledger.Verify(cust, connKey(id)); err != nil {
		return nil, err
	}
	return c.bridgeAndRoll(conn, avoid)
}

func (c *Controller) bridgeAndRoll(conn *Connection, avoid map[topo.LinkID]bool) (*sim.Job, error) {
	if conn.Layer != LayerDWDM {
		return nil, fmt.Errorf("core: bridge-and-roll applies to wavelength connections; %s is %v", conn.ID, conn.Layer)
	}
	if conn.State != StateActive {
		return nil, fmt.Errorf("core: connection %s is %v; bridge-and-roll needs an active connection", conn.ID, conn.State)
	}
	old := conn.working()

	// Paper constraint: the new wavelength path must be resource-disjoint
	// from the old one.
	merged := map[topo.LinkID]bool{}
	for l := range avoid {
		merged[l] = true
	}
	for _, l := range old.route.Path.Links {
		merged[l] = true
	}
	rollSp := c.tr.Start(obs.SpanRef{}, "op:roll")
	rollSp.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
	a, b := old.route.Path.Src(), old.route.Path.Dst()
	bridge, err := c.reserveLightpath(conn.ID, a, b, conn.Rate, conn.Protect, merged, old, false, rollSp)
	if err != nil {
		rollSp.EndErr(err)
		return nil, fmt.Errorf("core: no disjoint bridge path for %s: %w", conn.ID, err)
	}
	c.log(conn, "roll-bridge", "building bridge on %s", bridge.route.Path)

	out := c.k.NewJob()
	out.OnDone(func(err error) { rollSp.EndErr(err) })
	c.lightpathSetupJob(bridge, rollSp).OnDone(func(err error) {
		if conn.State != StateActive {
			// Failed or torn down while bridging; abandon the bridge.
			c.releaseLightpathMiddle(bridge)
			out.Complete(fmt.Errorf("core: connection %s became %v during bridge", conn.ID, conn.State))
			return
		}
		if err != nil {
			c.releaseLightpathMiddle(bridge)
			out.Complete(err)
			return
		}
		// Roll: an almost-hitless switch of traffic onto the bridge.
		hit := c.jit(c.lat.RollHit)
		hitSp := c.tr.Start(rollSp, "roll:hit")
		c.connDown(conn, slo.CauseRoll, "", "bridge-and-roll traffic hit", "hit")
		c.k.After(hit, func() {
			c.connUp(conn, "roll-done")
			hitSp.End()
			oldWorking := conn.working()
			c.releaseLightpathMiddle(oldWorking)
			conn.path = bridge
			conn.onProtect = false
			conn.Rolls++
			c.ins.rolls.Inc()
			c.ins.rollHitSecs.ObserveDuration(hit)
			c.log(conn, "roll-done", "traffic on %s (hit %v)", bridge.route.Path, hit)
			c.journalCommit(commitSet{reason: "roll", conns: []*Connection{conn}})
			out.Complete(nil)
		})
	})
	return out, nil
}

// Maintenance is a planned work window on one link. On a ShardSet every
// shard rolls its own customers into the one record.
type Maintenance struct {
	Link     topo.LinkID
	Window   sim.Duration
	Rolled   []ConnID
	Unmoved  []ConnID
	Finished bool // the window has closed
	// moving counts the replicas still rolling their customers off the link.
	moving int
}

// ScheduleMaintenance plans work on a link at a future time: when the window
// opens, every active wavelength connection using the link is bridge-and-
// rolled off it; the link is then taken out of service for the window and
// returned afterwards. Connections that cannot be moved (no disjoint path)
// ride through the hit like an unplanned failure — exactly the impact
// GRIPhoN's automation is designed to avoid. No repair crew is sent. The
// returned job completes when the link is back; the Maintenance record
// reports what was moved. On shard 0 of a ShardSet every shard rolls its own
// customers, and the link is cut once, when the last shard's moves are done.
func (c *Controller) ScheduleMaintenance(link topo.LinkID, at sim.Time, window sim.Duration) (*Maintenance, *sim.Job, error) {
	if c.g.Link(link) == nil {
		return nil, nil, fmt.Errorf("core: unknown link %s", link)
	}
	if window <= 0 {
		return nil, nil, fmt.Errorf("core: non-positive maintenance window %v", window)
	}
	if now := c.k.Now(); at.Before(now) {
		return nil, nil, fmt.Errorf("core: maintenance start %v is before now %v", at, now)
	}
	m := &Maintenance{Link: link, Window: window, moving: len(c.replicas)}
	out := c.k.NewJob()
	for _, r := range c.replicas {
		r.k.At(at, func() {
			r.log(nil, "maintenance-start", "link %s window %v", link, window)
			var rolls []*sim.Job
			for _, conn := range r.liveConns() {
				if conn.Layer != LayerDWDM || conn.State != StateActive {
					continue
				}
				lp := conn.working()
				if lp == nil || !lp.route.Path.HasLink(link) {
					continue
				}
				job, err := r.bridgeAndRoll(conn, map[topo.LinkID]bool{link: true})
				if err != nil {
					m.Unmoved = append(m.Unmoved, conn.ID)
					r.log(conn, "maintenance-hit", "cannot move off %s: %v", link, err)
					continue
				}
				m.Rolled = append(m.Rolled, conn.ID)
				rolls = append(rolls, job)
			}
			sim.All(r.k, rolls...).OnDone(func(error) {
				// Work starts once every replica's moves are done, moved or not.
				if m.moving--; m.moving == 0 {
					c.startMaintenanceWindow(m, out)
				}
			})
		})
	}
	return m, out, nil
}

func (c *Controller) startMaintenanceWindow(m *Maintenance, out *sim.Job) {
	link := m.Link
	if c.plant.LinkUp(link) {
		// Anything still on the link takes an unplanned-style hit — but the
		// SLA ledger attributes it to planned work, not a plant failure.
		c.cut(link, true)
	}
	c.k.After(m.Window, func() {
		if !c.plant.LinkUp(link) {
			c.RepairFiber(link) //lint:allow errcheck symmetric with cut
		}
		m.Finished = true
		c.log(nil, "maintenance-done", "link %s returned to service", link)
		out.Complete(nil)
	})
}

// Regroom re-provisions a connection onto the currently best route when that
// improves its path weight (paper §4: re-grooming after new routes are added
// reduces latency and off-loads original paths), using bridge-and-roll so the
// customer barely notices. It reports whether a move was made.
func (c *Controller) Regroom(cust inventory.Customer, id ConnID) (bool, *sim.Job, error) {
	conn := c.conns.get(id)
	if conn == nil {
		return false, nil, fmt.Errorf("core: unknown connection %s", id)
	}
	if err := c.ledger.Verify(cust, connKey(id)); err != nil {
		return false, nil, err
	}
	return c.regroom(conn)
}

// regroom moves conn onto a better disjoint path when one exists.
func (c *Controller) regroom(conn *Connection) (bool, *sim.Job, error) {
	if conn.Layer != LayerDWDM || conn.State != StateActive {
		return false, nil, fmt.Errorf("core: re-grooming needs an active wavelength connection")
	}
	old := conn.working()
	a, b := old.route.Path.Src(), old.route.Path.Dst()

	// Bridge-and-roll requires a disjoint new path, so the re-grooming
	// candidate is the best route that avoids the current links; move only
	// when that candidate actually improves the path weight.
	opt := c.rwaOpt
	opt.Constraints.AvoidLinks = make(map[topo.LinkID]bool, len(old.route.Path.Links))
	for _, l := range old.route.Path.Links {
		opt.Constraints.AvoidLinks[l] = true
	}
	cand, err := rwa.FindRoute(c.plant, a, b, opt)
	if err != nil {
		return false, c.k.CompletedJob(nil), nil // no disjoint path: nothing to do
	}
	m := rwa.ByHops
	curW := rwa.PathWeight(c.g, old.route.Path, m)
	newW := rwa.PathWeight(c.g, cand.Path, m)
	if newW >= curW {
		return false, c.k.CompletedJob(nil), nil
	}
	job, err := c.bridgeAndRoll(conn, nil)
	if err != nil {
		return false, nil, err
	}
	c.log(conn, "regroom", "weight %.0f -> %.0f (%v)", curW, newW, m)
	return true, job, nil
}
