package core

import (
	"errors"
	"fmt"
	"strings"

	"griphon/internal/bw"
	"griphon/internal/fxc"
	"griphon/internal/inventory"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// Rehydrate rebuilds a controller from a journal's recovered contents: the
// last snapshot folded with every intact WAL record. The kernel must be fresh
// (its clock is fast-forwarded to the journaled time), and cfg.Journal must be
// the store the state was recovered from — it stays attached, so the rebuilt
// controller keeps journaling where the crashed one stopped.
//
// Recovery restores exactly the committed state: every connection at its last
// stable lifecycle state with its exact resources (spectrum channels,
// transponders and regens by ID, ROADM segments, FXC cross-connects, OTN
// slots, access capacity, ledger claims), every pipe, every booking with its
// timers re-armed. Operations that were mid-flight at the crash (a Pending
// setup, a restoration being provisioned, a bridge being built) are rolled
// back by construction: their resources were never journaled. Billing meters
// and outage clocks restart at the recovery instant — usage continuity is
// traded for a byte-comparable state representation (see persist.go).
//
// After rebuilding, AuditInvariants must come back clean; any finding is
// returned as an error because it means the journal and the replay disagree
// about resource ownership — exactly the corruption durability exists to
// prevent.
func Rehydrate(k *sim.Kernel, g *topo.Graph, cfg Config) (*Controller, error) {
	if cfg.Journal == nil {
		return nil, fmt.Errorf("core: Rehydrate needs cfg.Journal")
	}
	snapshot, entries := cfg.Journal.Recovered()
	st, err := foldState(snapshot, entries)
	if err != nil {
		return nil, err
	}

	// The journaled clock is where virtual time resumes; RunUntil on a fresh
	// kernel just advances the clock (no events are pending yet).
	if now := sim.Time(st.Now); now.After(k.Now()) {
		//lint:allow loopblock boot-time fast-forward on a fresh kernel before any event runs
		k.RunUntil(now)
	}

	c, err := New(k, g, cfg)
	if err != nil {
		return nil, err
	}
	// Detach the journal while rebuilding: applying recovered state must not
	// append recovered state back to the WAL.
	jrnl := c.jrnl
	c.jrnl = nil
	defer func() { c.jrnl = jrnl }()

	for _, q := range st.Quotas {
		c.ledger.SetQuota(inventory.Customer(q.Customer), inventory.Quota{
			MaxConnections: q.MaxConnections,
			MaxBandwidth:   bw.Rate(q.MaxBandwidth),
		})
	}

	for _, l := range st.DownLinks {
		link := topo.LinkID(l)
		if c.g.Link(link) == nil {
			return nil, fmt.Errorf("core: journaled down link %s is not in the topology", link)
		}
		c.plant.SetLinkUp(link, false)
		if c.autoRepair && c.shard.Index == 0 {
			// The crashed controller's crew ETA is gone with its event queue;
			// shard 0 dispatches a fresh crew for the set.
			c.sendCrew(link, " after recovery")
		}
	}

	c.nextConn = st.NextConn
	c.lpSeq = st.LpSeq
	c.nextBooking = st.NextBooking
	c.fabric.SetNextID(st.NextPipe)

	// Pipes come back up=true regardless of their journaled flag so the slot
	// re-reservations below succeed (Reserve refuses down pipes, but committed
	// circuits legitimately hold slots on down pipes); the recorded flags are
	// applied once every connection has its slots back.
	for _, r := range st.Pipes {
		p, err := otn.RestorePipe(otn.PipeID(r.ID), topo.NodeID(r.A), topo.NodeID(r.B), otn.Level(r.Level), true)
		if err != nil {
			return nil, fmt.Errorf("core: rebuilding pipe %s: %w", r.ID, err)
		}
		if err := c.fabric.RestorePipe(p); err != nil {
			return nil, fmt.Errorf("core: rebuilding pipe %s: %w", r.ID, err)
		}
		if r.Carrier != "" {
			c.pipeCarrier[otn.PipeID(r.ID)] = ConnID(r.Carrier)
		}
	}

	for i := range st.Conns {
		r := &st.Conns[i]
		if err := c.restoreConn(r); err != nil {
			return nil, fmt.Errorf("core: rebuilding connection %s: %w", r.ID, err)
		}
	}

	for _, r := range st.Pipes {
		if !r.Up {
			c.fabric.Pipe(otn.PipeID(r.ID)).SetUp(false)
		}
	}

	for _, r := range st.Bookings {
		if err := c.restoreBooking(r); err != nil {
			return nil, fmt.Errorf("core: rebuilding booking %d: %w", r.ID, err)
		}
	}

	if findings := c.AuditInvariants(); len(findings) > 0 {
		msgs := make([]string, len(findings))
		for i, f := range findings {
			msgs[i] = f.String()
		}
		return nil, fmt.Errorf("core: recovered state fails invariant audit: %s", strings.Join(msgs, "; "))
	}
	c.log(nil, "recovered", "journal replay: %d connections, %d pipes, %d bookings",
		len(st.Conns), len(st.Pipes), len(st.Bookings))
	return c, nil
}

// restoreConn rebuilds one connection from its record, re-reserving every
// resource the committed state says it holds.
func (c *Controller) restoreConn(r *connRec) error {
	conn := &Connection{
		ID:           ConnID(r.ID),
		Customer:     inventory.Customer(r.Customer),
		From:         topo.SiteID(r.From),
		To:           topo.SiteID(r.To),
		Rate:         bw.Rate(r.Rate),
		Layer:        Layer(r.Layer),
		Protect:      Protection(r.Protect),
		State:        State(r.State),
		stable:       State(r.State),
		Internal:     r.Internal,
		Degraded:     r.Degraded,
		onProtect:    r.OnProtect,
		RequestedAt:  sim.Time(r.RequestedAt),
		ActiveAt:     sim.Time(r.ActiveAt),
		ReleasedAt:   sim.Time(r.ReleasedAt),
		Restorations: r.Restorations,
		Rolls:        r.Rolls,
	}
	if conn.State != StateReleased || r.Carries != "" {
		conn.connLive = &connLive{carries: otn.PipeID(r.Carries), slots: r.Slots}
	}
	c.conns.insert(conn)
	if conn.State == StateReleased {
		return nil
	}

	if err := c.ledger.Admit(conn.Customer, conn.Rate); err != nil {
		return fmt.Errorf("re-admitting: %w", err)
	}
	if err := c.ledger.Claim(conn.Customer, connKey(conn.ID)); err != nil {
		return fmt.Errorf("re-claiming: %w", err)
	}
	if !conn.Internal {
		siteA, siteB := c.g.Site(conn.From), c.g.Site(conn.To)
		if siteA == nil || siteB == nil {
			return fmt.Errorf("sites %s/%s not in topology", conn.From, conn.To)
		}
		if err := c.reserveAccess(siteA, siteB, conn.Rate); err != nil {
			return err
		}
	}

	var err error
	if conn.path, err = c.restoreLightpath(r.Path, conn.ID); err != nil {
		return err
	}
	if conn.protect, err = c.restoreLightpath(r.ProtectPath, conn.ID); err != nil {
		return err
	}

	if len(r.Pipes) > 0 {
		pipes, err := c.resolvePipes(r.Pipes)
		if err != nil {
			return err
		}
		if err := otn.ReservePath(pipes, r.ID, r.Slots); err != nil {
			return fmt.Errorf("re-reserving slots: %w", err)
		}
		conn.pipes = pipes
	}
	if len(r.Backup) > 0 {
		backup, err := c.resolvePipes(r.Backup)
		if err != nil {
			return err
		}
		if err := otn.ReserveSharedPath(backup, r.ID, r.Slots); err != nil {
			return fmt.Errorf("re-reserving shared backup: %w", err)
		}
		conn.backup = backup
	}

	// Meters and outage clocks restart at the recovery instant (persist.go
	// excludes them from the durable state). The SLA ledger restarts with
	// them: downtime that straddles a restart is attributed to the recovery
	// instant, never left unexplained.
	switch conn.State {
	case StateActive:
		conn.metering = true
		conn.meterAt = c.k.Now()
		c.sla.Activate(string(conn.ID), string(conn.Customer), c.k.Now(), conn.Degraded, conn.Internal)
	case StateDown:
		conn.metering = true
		conn.meterAt = c.k.Now()
		c.sla.Activate(string(conn.ID), string(conn.Customer), c.k.Now(), conn.Degraded, conn.Internal)
		c.sla.Down(string(conn.ID), c.k.Now(), slo.CauseRecovery, "", "outage clock restarted at recovery", "repair-wait")
		conn.inOutage = true
		conn.outageStart = c.k.Now()
	}
	return nil
}

// restoreLightpath re-reserves a journaled lightpath: the exact transponders
// and regens by ID, the exact spectrum channels, the recorded ROADM segment
// owners, and the recorded FXC cross-connects.
func (c *Controller) restoreLightpath(r *lightpathRec, id ConnID) (*lightpath, error) {
	if r == nil {
		return nil, nil
	}
	route := r.Route
	a, b := route.Path.Src(), route.Path.Dst()
	lp := &lightpath{route: route}

	for i, node := range [2]topo.NodeID{a, b} {
		if r.OTs[i] == "" {
			continue
		}
		ot, err := c.plant.OTs(node).Take(r.OTs[i])
		if err != nil {
			return nil, err
		}
		lp.ots[i] = ot
	}
	if len(r.Regens) != len(route.Plan.RegenNodes) {
		return nil, fmt.Errorf("lightpath record has %d regens for %d regen nodes", len(r.Regens), len(route.Plan.RegenNodes))
	}
	for i, rn := range route.Plan.RegenNodes {
		rg, err := c.plant.Regens(rn).Take(r.Regens[i])
		if err != nil {
			return nil, err
		}
		lp.regens = append(lp.regens, rg)
	}

	for i, seg := range route.Plan.Segments {
		ch := route.Channels[i]
		for _, link := range seg.Links {
			if err := c.plant.Spectrum(link).Reserve(ch, string(id)); err != nil {
				return nil, fmt.Errorf("re-reserving channel %d on %s: %w", ch, link, err)
			}
		}
	}

	lp.segNodes = segmentNodes(route.Path, route.Plan)
	if len(r.SegOwners) != len(route.Plan.Segments) {
		return nil, fmt.Errorf("lightpath record has %d segment owners for %d segments", len(r.SegOwners), len(route.Plan.Segments))
	}
	for i := range route.Plan.Segments {
		owner := r.SegOwners[i]
		if err := c.roadms.ConfigureSegment(lp.segNodes[i], route.Plan.Segments[i].Links, route.Channels[i], owner); err != nil {
			return nil, fmt.Errorf("reconfiguring ROADM segment %d: %w", i, err)
		}
		lp.segOwners = append(lp.segOwners, owner)
	}

	if r.PortsA[0] != "" {
		if err := c.fxcs[a].Connect(fxc.PortID(r.PortsA[0]), fxc.PortID(r.PortsA[1]), string(id)); err != nil {
			return nil, fmt.Errorf("reconnecting FXC at %s: %w", a, err)
		}
		lp.portsA = [2]fxc.PortID{fxc.PortID(r.PortsA[0]), fxc.PortID(r.PortsA[1])}
	}
	if r.PortsB[0] != "" {
		if err := c.fxcs[b].Connect(fxc.PortID(r.PortsB[0]), fxc.PortID(r.PortsB[1]), string(id)); err != nil {
			return nil, fmt.Errorf("reconnecting FXC at %s: %w", b, err)
		}
		lp.portsB = [2]fxc.PortID{fxc.PortID(r.PortsB[0]), fxc.PortID(r.PortsB[1])}
	}
	return lp, nil
}

func (c *Controller) resolvePipes(ids []string) ([]*otn.Pipe, error) {
	out := make([]*otn.Pipe, 0, len(ids))
	for _, id := range ids {
		p := c.fabric.Pipe(otn.PipeID(id))
		if p == nil {
			return nil, fmt.Errorf("journaled pipe %s was not rebuilt", id)
		}
		out = append(out, p)
	}
	return out, nil
}

// restoreBooking rebuilds one booking and re-arms its lifecycle timers. The
// exact open/close instants are journaled, so a recovered controller keeps the
// calendar; windows whose time passed while the controller was down fire
// immediately.
func (c *Controller) restoreBooking(r bookingRec) error {
	b := &Booking{
		ID: r.ID,
		Req: Request{
			Customer: inventory.Customer(r.Customer),
			From:     topo.SiteID(r.From),
			To:       topo.SiteID(r.To),
			Rate:     bw.Rate(r.Rate),
			Protect:  Protection(r.Protect),
		},
		At:      sim.Time(r.At),
		Hold:    sim.Duration(r.Hold),
		phase:   r.Phase,
		closeAt: sim.Time(r.CloseAt),
	}
	if r.SetupErr != "" {
		b.SetupErr = errors.New(r.SetupErr)
	}
	if r.CloseErr != "" {
		b.CloseErr = errors.New(r.CloseErr)
	}
	for _, id := range r.Conns {
		conn := c.conns.get(ConnID(id))
		if conn == nil {
			return fmt.Errorf("component %s was not rebuilt", id)
		}
		b.Conns = append(b.Conns, conn)
	}
	c.bookings[b.ID] = b

	switch b.phase {
	case bookingPending:
		b.Done = c.k.NewJob()
		c.scheduleOpen(b)
	case bookingOpen:
		b.Done = c.k.NewJob()
		if b.closeAt.After(c.k.Now()) {
			c.k.At(b.closeAt, func() { c.closeBooking(b) })
		} else {
			c.k.Defer(func() { c.closeBooking(b) })
		}
	case bookingClosed:
		b.Done = c.k.CompletedJob(b.CloseErr)
	case bookingFailed:
		b.Done = c.k.CompletedJob(b.SetupErr)
	default:
		return fmt.Errorf("unknown phase %d", b.phase)
	}
	return nil
}
