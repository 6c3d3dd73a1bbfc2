package core

import (
	"fmt"

	"griphon/internal/bw"
	"griphon/internal/faults"
	"griphon/internal/fxc"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/optics"
	"griphon/internal/otn"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// CarrierCustomer owns internal connections (OTN pipe carriers).
const CarrierCustomer inventory.Customer = "carrier"

// Request asks for one connection between two data-center sites.
type Request struct {
	Customer inventory.Customer
	From, To topo.SiteID
	Rate     bw.Rate
	// Protect defaults to Restore for wavelengths; OTN circuits get
	// SharedMesh (their native scheme) unless explicitly Unprotected.
	Protect Protection
}

// ErrUseComposite is returned by Connect for rates that need both layers;
// callers should use ConnectComposite (or the service layer does).
var ErrUseComposite = fmt.Errorf("core: rate needs a composite (multi-connection) service")

// PlaceRate implements the Fig. 2 service placement: where a guaranteed-
// bandwidth request of the given rate lands. It returns the component rates
// of the decomposition (a single element when one connection suffices).
// Requests below 1G belong to the IP/EVC layer, which GRIPhoN does not carry.
func PlaceRate(rate bw.Rate) ([]bw.Rate, error) {
	switch {
	case rate <= 0:
		return nil, fmt.Errorf("core: non-positive rate %v", rate)
	case rate < bw.Rate1G:
		return nil, fmt.Errorf("core: rate %v belongs to the IP/EVC layer (below 1G)", rate)
	case rate < bw.Rate10G:
		return []bw.Rate{rate}, nil // single OTN circuit
	case rate == bw.Rate10G || rate == bw.Rate40G:
		return []bw.Rate{rate}, nil // single wavelength
	}
	// Composite: whole wavelengths greedily, then 1G OTN circuits for the
	// remainder (paper §2.2's example: 12G = one 10G wavelength + 2x1G).
	var parts []bw.Rate
	rem := rate
	for rem >= bw.Rate40G {
		parts = append(parts, bw.Rate40G)
		rem -= bw.Rate40G
	}
	for rem >= bw.Rate10G {
		parts = append(parts, bw.Rate10G)
		rem -= bw.Rate10G
	}
	for rem > 0 {
		parts = append(parts, bw.Rate1G)
		rem -= bw.Rate1G
	}
	return parts, nil
}

// layerFor returns the realization layer for a single component rate.
func layerFor(rate bw.Rate) Layer {
	if rate == bw.Rate10G || rate == bw.Rate40G {
		return LayerDWDM
	}
	return LayerOTN
}

// Connect provisions a single connection. It performs admission and resource
// reservation synchronously — a blocked request fails immediately, with
// nothing leaked — and returns the pending connection plus the job that
// completes when EMS configuration finishes and the connection is Active.
func (c *Controller) Connect(req Request) (*Connection, *sim.Job, error) {
	if req.Customer == "" {
		return nil, nil, fmt.Errorf("core: empty customer")
	}
	parts, err := PlaceRate(req.Rate)
	if err != nil {
		return nil, nil, err
	}
	if len(parts) > 1 {
		return nil, nil, fmt.Errorf("%w: %v -> %v", ErrUseComposite, req.Rate, parts)
	}
	siteA, err := c.siteHome(req.From)
	if err != nil {
		return nil, nil, err
	}
	siteB, err := c.siteHome(req.To)
	if err != nil {
		return nil, nil, err
	}
	if siteA.ID == siteB.ID {
		return nil, nil, fmt.Errorf("core: source and destination site are both %s", siteA.ID)
	}
	if siteA.Home == siteB.Home {
		return nil, nil, fmt.Errorf("core: sites %s and %s share home PoP %s; no core connection needed", siteA.ID, siteB.ID, siteA.Home)
	}

	layer := layerFor(req.Rate)
	protect := req.Protect
	switch layer {
	case LayerDWDM:
		if protect == SharedMesh {
			return nil, nil, fmt.Errorf("core: shared-mesh protection is an OTN-layer scheme")
		}
	case LayerOTN:
		switch protect {
		case Restore:
			protect = SharedMesh // the OTN layer's native restoration
		case OnePlusOne:
			return nil, nil, fmt.Errorf("core: 1+1 protection is not offered on OTN circuits")
		}
	}

	// Admission: quota, access pipes and the connection claim accumulate in
	// one transaction, so any later failure returns them in LIFO order.
	adm := inventory.NewTxn()
	if err := adm.Do(
		func() error { return c.ledger.Admit(req.Customer, req.Rate) },
		func() { c.ledger.Discharge(req.Customer, req.Rate) }, //lint:allow errcheck undoing our own admit
	); err != nil {
		adm.Rollback()
		c.ins.blockedAdmission.Inc()
		return nil, nil, err
	}
	if err := adm.Do(
		func() error { return c.reserveAccess(siteA, siteB, req.Rate) },
		func() { c.releaseAccess(siteA.ID, siteB.ID, req.Rate) },
	); err != nil {
		adm.Rollback()
		c.ins.blockedAdmission.Inc()
		return nil, nil, err
	}

	conn := &Connection{
		ID:          c.newConnID(),
		Customer:    req.Customer,
		From:        siteA.ID,
		To:          siteB.ID,
		Rate:        req.Rate,
		Layer:       layer,
		Protect:     protect,
		State:       StatePending,
		RequestedAt: c.k.Now(),
		connLive:    &connLive{},
	}
	if err := adm.Do(
		func() error { return c.ledger.Claim(req.Customer, connKey(conn.ID)) },
		func() { c.ledger.Release(req.Customer, connKey(conn.ID)) }, //lint:allow errcheck undoing our own claim
	); err != nil {
		adm.Rollback()
		return nil, nil, err
	}
	conn.opSpan = c.tr.Start(obs.SpanRef{}, "op:setup")
	conn.opSpan.SetConn(string(conn.ID), string(conn.Customer), layer.String())

	var job *sim.Job
	switch layer {
	case LayerDWDM:
		job, err = c.connectWavelength(conn, siteA.Home, siteB.Home)
	case LayerOTN:
		job, err = c.connectCircuit(conn, siteA.Home, siteB.Home)
	}
	if err != nil {
		conn.opSpan.EndErr(err)
		c.ins.blockedRoute.Inc()
		adm.Rollback()
		return nil, nil, err
	}
	adm.Commit()
	c.conns.insert(conn)
	c.log(conn, "request", "%s %s->%s %v %v %v", conn.Customer, conn.From, conn.To, conn.Rate, conn.Layer, conn.Protect)
	return conn, job, nil
}

func connKey(id ConnID) string { return "conn:" + string(id) }

// wavelengthAlternates bounds how many alternate routes a setup tries after a
// path-level EMS failure before degrading to the OTN layer or giving up.
const wavelengthAlternates = 2

// connectWavelength reserves and configures a DWDM-layer connection, walking
// the degradation ladder when the network will not cooperate: transient EMS
// faults are retried inside the setup job; a path that keeps failing is
// abandoned for the next candidate route; and when every route is exhausted
// (or none exists to begin with), a 10G request may be delivered as a groomed
// OTN circuit instead of hard-blocking (Config.DegradeToOTN).
func (c *Controller) connectWavelength(conn *Connection, a, b topo.NodeID) (*sim.Job, error) {
	lp, err := c.reserveLightpath(conn.ID, a, b, conn.Rate, conn.Protect, nil, nil, true, conn.opSpan)
	if err != nil {
		// No route or wavelength at admission: the ladder's last rung.
		if job, derr := c.degradeToGroomed(conn, a, b, err); derr == nil {
			return job, nil
		}
		return nil, err
	}

	if conn.Protect == OnePlusOne {
		conn.path = lp
		avoid := map[topo.LinkID]bool{}
		for _, l := range lp.route.Path.Links {
			avoid[l] = true
		}
		plp, err := c.reserveLightpath(conn.ID, a, b, conn.Rate, conn.Protect, avoid, nil, false, conn.opSpan)
		if err != nil {
			c.releaseLightpath(conn.ID, lp)
			conn.path = nil
			return nil, fmt.Errorf("core: no disjoint protect path: %w", err)
		}
		conn.protect = plp
		// 1+1 legs stand or fall together — a failed leg means the paid-for
		// protection cannot be delivered, so no ladder here.
		job := sim.All(c.k, c.lightpathSetupJob(lp, conn.opSpan), c.lightpathSetupJob(plp, conn.opSpan))
		job.OnDone(func(err error) { c.finishSetup(conn, err) })
		return job, nil
	}

	out := c.k.NewJob()
	c.attemptWavelengthSetup(conn, a, b, lp, nil, wavelengthAlternates, out)
	return out, nil
}

// attemptWavelengthSetup runs the EMS choreography for one candidate
// lightpath and, when it fails while the connection is still pending, drops
// one rung down the ladder: release the path, reserve the next candidate
// avoiding every link that failed on ANY earlier attempt (avoid accumulates
// across the ladder's rungs — an earlier rung's poisoned links must not be
// revisited just because a different path failed since), and try again — up
// to `alternates` reroutes, then the OTN grooming fallback.
func (c *Controller) attemptWavelengthSetup(conn *Connection, a, b topo.NodeID, lp *lightpath, avoid map[topo.LinkID]bool, alternates int, out *sim.Job) {
	conn.path = lp
	c.lightpathSetupJob(lp, conn.opSpan).OnDone(func(err error) {
		if err == nil || conn.State != StatePending || !faults.IsFault(err) {
			// Success, torn down mid-setup, or a plain (non-fault-model)
			// error — those signal controller logic problems, and papering
			// over them with a reroute would hide real bugs.
			c.finishSetup(conn, err)
			out.Complete(err)
			return
		}
		// Path-level EMS fault; transient faults were already retried
		// inside the setup job, so this path is not worth more attempts.
		c.log(conn, "setup-fallback", "path %s failed: %v", lp.route.Path, err)
		c.releaseLightpath(conn.ID, lp)
		conn.path = nil
		if avoid == nil {
			avoid = map[topo.LinkID]bool{}
		}
		for _, l := range lp.route.Path.Links {
			avoid[l] = true
		}
		if alternates > 0 {
			if alt, rerr := c.reserveLightpath(conn.ID, a, b, conn.Rate, conn.Protect, avoid, nil, true, conn.opSpan); rerr == nil {
				c.ins.setupRerouted.Inc()
				c.log(conn, "setup-reroute", "retrying on candidate %s", alt.route.Path)
				c.attemptWavelengthSetup(conn, a, b, alt, avoid, alternates-1, out)
				return
			}
		}
		if job, derr := c.degradeToGroomed(conn, a, b, err); derr == nil {
			job.OnDone(func(err error) { out.Complete(err) })
			return
		}
		c.finishSetup(conn, err)
		out.Complete(err)
	})
}

// degradeToGroomed delivers a blocked or persistently-failing 10G wavelength
// request as a groomed OTN circuit — the ladder's last rung: sub-wavelength
// service on the paper's Fig. 2 placement, pressed into duty when the DWDM
// layer cannot deliver a whole wavelength. It returns the original cause when
// degradation is off or inapplicable: 40G cannot degrade (pipes are ODU2 —
// 8 tributary slots — and a 40G circuit needs an ODU3), and 1+1 requests
// never do (the paid-for dedicated protection has no OTN equivalent).
func (c *Controller) degradeToGroomed(conn *Connection, a, b topo.NodeID, cause error) (*sim.Job, error) {
	if !c.degradeToOTN || conn.Internal || conn.Rate != bw.Rate10G || conn.Protect == OnePlusOne {
		return nil, cause
	}
	prevLayer, prevProtect := conn.Layer, conn.Protect
	conn.Layer = LayerOTN
	if conn.Protect == Restore {
		conn.Protect = SharedMesh // the OTN layer's native scheme
	}
	job, err := c.connectCircuit(conn, a, b)
	if err != nil {
		conn.Layer, conn.Protect = prevLayer, prevProtect
		return nil, cause
	}
	conn.Degraded = true
	c.ins.setupGroomed.Inc()
	c.log(conn, "setup-degraded", "wavelength unavailable (%v); degrading to a groomed OTN circuit", cause)
	return job, nil
}

// finishSetup transitions a pending connection to Active (or unwinds it on an
// EMS failure).
func (c *Controller) finishSetup(conn *Connection, err error) {
	if conn.State != StatePending {
		return // torn down mid-setup
	}
	if err != nil {
		conn.opSpan.EndErr(err)
		c.ins.setupFailed[conn.Layer].Inc()
		c.log(conn, "setup-failed", "%v", err)
		pipes := touchedPipes(conn)
		c.releaseConnResources(conn)
		c.retire(conn)
		c.journalCommit(commitSet{reason: "setup-failed", conns: []*Connection{conn}, pipes: pipes})
		return
	}
	conn.State = StateActive
	conn.stable = StateActive
	conn.ActiveAt = c.k.Now()
	conn.metering = true
	conn.meterAt = c.k.Now()
	c.sla.Activate(string(conn.ID), string(conn.Customer), c.k.Now(), conn.Degraded, conn.Internal)
	conn.opSpan.End()
	if conn.Internal {
		c.ins.pipeBuilds.Inc()
	} else {
		c.ins.setupOK[conn.Layer].Inc()
		c.ins.setupSecs[conn.Layer].ObserveDuration(conn.SetupTime())
	}
	c.log(conn, "active", "setup took %v", conn.SetupTime())
	c.journalCommit(commitSet{reason: "setup", conns: []*Connection{conn}, pipes: touchedPipes(conn)})
}

// touchedPipes snapshots the pipes a connection's commit record must carry
// alongside it (working path and shared backup), captured before any release
// nils the slices.
func touchedPipes(conn *Connection) []*otn.Pipe {
	out := append([]*otn.Pipe(nil), conn.pipes...)
	return append(out, conn.backup...)
}

// reserveLightpath finds a route and atomically reserves everything it needs.
// reuse, when non-nil, supplies the terminating OTs and FXC ports of an
// existing lightpath (restoration and bridge-and-roll keep the ends, only the
// middle changes). withFXC selects whether FXC client/line ports are part of
// this lightpath (the 1+1 protect leg bridges inside the NTE instead).
//
// With Config.PathCache on, unconstrained requests (no caller avoid set, no
// reuse — the common cold-start and repeat-customer shape) are answered from
// the path cache when possible, skipping the K-shortest search and
// regeneration planning; the lightpath is marked cached so the choreography
// charges the reduced controller overhead. A cached route that can no longer
// be reserved (spectrum filled up meanwhile) falls through to the full
// search.
func (c *Controller) reserveLightpath(id ConnID, a, b topo.NodeID, rate bw.Rate, protect Protection, avoid map[topo.LinkID]bool, reuse *lightpath, withFXC bool, parent obs.SpanRef) (*lightpath, error) {
	cacheable := c.pcache != nil && len(avoid) == 0 && reuse == nil
	if cacheable {
		key := pathKey{a: a, b: b, rate: rate, protect: protect}
		if route, ok := c.pcacheLookup(key); ok {
			c.ins.pathcacheHit.Inc()
			sp := c.tr.Start(parent, "rwa:cache-hit")
			lp, err := c.reserveOnRoute(id, route, rate, reuse, withFXC)
			sp.EndErr(err)
			if err == nil {
				lp.cached = true
				return lp, nil
			}
			// Fall through to the full search below.
		} else {
			c.ins.pathcacheMiss.Inc()
		}
	}

	opt := c.rwaOpt
	opt.Rate = rate
	opt.Constraints.AvoidLinks = avoid

	sp := c.tr.Start(parent, "rwa:search")
	route, err := rwa.FindRoute(c.plant, a, b, opt)
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	rsp := c.tr.Start(parent, "reserve")
	lp, err := c.reserveOnRoute(id, route, rate, reuse, withFXC)
	rsp.EndErr(err)
	if err == nil && cacheable {
		c.pcacheStore(pathKey{a: a, b: b, rate: rate, protect: protect}, route)
	}
	return lp, err
}

// reserveOnRoute reserves devices, spectrum and ports for an already chosen
// route, atomically.
func (c *Controller) reserveOnRoute(id ConnID, route rwa.Route, rate bw.Rate, reuse *lightpath, withFXC bool) (*lightpath, error) {
	a, b := route.Path.Src(), route.Path.Dst()
	lp := &lightpath{route: route}
	txn := inventory.NewTxn()
	defer txn.Rollback()

	if reuse != nil {
		lp.ots = reuse.ots
		lp.portsA = reuse.portsA
		lp.portsB = reuse.portsB
	} else {
		otA, err := inventory.Reserve(txn,
			func() (*optics.OT, error) { return c.plant.OTs(a).Alloc(rate) },
			func(ot *optics.OT) { c.plant.OTs(a).Release(ot) }) //lint:allow errcheck rollback
		if err != nil {
			return nil, err
		}
		otB, err := inventory.Reserve(txn,
			func() (*optics.OT, error) { return c.plant.OTs(b).Alloc(rate) },
			func(ot *optics.OT) { c.plant.OTs(b).Release(ot) }) //lint:allow errcheck rollback
		if err != nil {
			return nil, err
		}
		lp.ots = [2]*optics.OT{otA, otB}
	}

	for _, rn := range route.Plan.RegenNodes {
		rn := rn
		rg, err := inventory.Reserve(txn,
			func() (*optics.Regen, error) { return c.plant.Regens(rn).Alloc(rate) },
			func(rg *optics.Regen) { c.plant.Regens(rn).Release(rg) }) //lint:allow errcheck rollback
		if err != nil {
			return nil, err
		}
		lp.regens = append(lp.regens, rg)
	}

	for i, seg := range route.Plan.Segments {
		ch := route.Channels[i]
		for _, link := range seg.Links {
			link, ch := link, ch
			sp := c.plant.Spectrum(link)
			if err := txn.Do(
				func() error { return sp.Reserve(ch, string(id)) },
				func() { sp.Release(ch) }, //lint:allow errcheck rollback
			); err != nil {
				return nil, err
			}
		}
	}

	// Program the ROADM layer: terminate at each segment's ends, express
	// through its intermediates. Each segment gets a distinct owner key —
	// including a per-lightpath nonce, because during restoration or
	// bridge-and-roll the same connection briefly holds TWO lightpaths
	// that share end nodes, and releasing one must not disturb the other.
	lp.segNodes = segmentNodes(route.Path, route.Plan)
	c.lpSeq++
	for i := range route.Plan.Segments {
		i := i
		owner := fmt.Sprintf("%s#lp%d.seg%d", id, c.lpSeq, i)
		nodes := lp.segNodes[i]
		links := route.Plan.Segments[i].Links
		ch := route.Channels[i]
		if err := txn.Do(
			func() error { return c.roadms.ConfigureSegment(nodes, links, ch, owner) },
			func() { c.roadms.ReleaseSegment(nodes, owner) },
		); err != nil {
			return nil, err
		}
		lp.segOwners = append(lp.segOwners, owner)
	}

	if withFXC && reuse == nil {
		pa, err := c.reserveFXCPair(txn, a, id)
		if err != nil {
			return nil, err
		}
		pb, err := c.reserveFXCPair(txn, b, id)
		if err != nil {
			return nil, err
		}
		lp.portsA, lp.portsB = pa, pb
	}

	txn.Commit()
	return lp, nil
}

// reserveFXCPair takes a free client and line port on the node's FXC and
// cross-connects them, all under the transaction.
func (c *Controller) reserveFXCPair(txn *inventory.Txn, node topo.NodeID, id ConnID) ([2]fxc.PortID, error) {
	sw := c.fxcs[node]
	var pair [2]fxc.PortID
	err := txn.Do(func() error {
		cp, err := sw.FreePort(fxc.Client)
		if err != nil {
			return err
		}
		lnp, err := sw.FreePort(fxc.Line)
		if err != nil {
			return err
		}
		if err := sw.Connect(cp, lnp, string(id)); err != nil {
			return err
		}
		pair = [2]fxc.PortID{cp, lnp}
		return nil
	}, func() {
		if pair[0] != "" {
			sw.Disconnect(pair[0]) //lint:allow errcheck rollback
		}
	})
	return pair, err
}

// releaseLightpath returns every resource of a lightpath. ownsEnds=false
// variants (restoration legs reusing terminating equipment) release only
// spectrum and regens.
func (c *Controller) releaseLightpath(id ConnID, lp *lightpath) {
	c.releaseLightpathMiddle(lp)
	if lp.ots[0] != nil {
		c.plant.OTs(lp.ots[0].Node).Release(lp.ots[0]) //lint:allow errcheck owned
	}
	if lp.ots[1] != nil {
		c.plant.OTs(lp.ots[1].Node).Release(lp.ots[1]) //lint:allow errcheck owned
	}
	if lp.portsA[0] != "" {
		c.fxcs[lp.route.Path.Src()].Disconnect(lp.portsA[0]) //lint:allow errcheck owned
	}
	if lp.portsB[0] != "" {
		c.fxcs[lp.route.Path.Dst()].Disconnect(lp.portsB[0]) //lint:allow errcheck owned
	}
	_ = id
}

// releaseLightpathMiddle frees spectrum, ROADM switching state and
// regenerators (everything except the terminating OTs and FXC ports).
func (c *Controller) releaseLightpathMiddle(lp *lightpath) {
	for i, seg := range lp.route.Plan.Segments {
		ch := lp.route.Channels[i]
		for _, link := range seg.Links {
			c.plant.Spectrum(link).Release(ch) //lint:allow errcheck owned
		}
	}
	for i, owner := range lp.segOwners {
		c.roadms.ReleaseSegment(lp.segNodes[i], owner)
	}
	lp.segOwners = nil
	lp.segNodes = nil
	for _, rg := range lp.regens {
		c.plant.Regens(rg.Node).Release(rg) //lint:allow errcheck owned
	}
	lp.regens = nil
}

// segmentNodes splits a path's node sequence by its regeneration plan:
// segment i covers the nodes spanning its links, with regen nodes appearing
// as the last node of one segment and the first of the next.
func segmentNodes(path topo.Path, plan optics.RegenPlan) [][]topo.NodeID {
	out := make([][]topo.NodeID, len(plan.Segments))
	idx := 0
	for i, seg := range plan.Segments {
		n := len(seg.Links)
		out[i] = append([]topo.NodeID(nil), path.Nodes[idx:idx+n+1]...)
		idx += n
	}
	return out
}

// Disconnect tears a connection down on behalf of its owner. Resources are
// released when the teardown EMS work completes.
func (c *Controller) Disconnect(cust inventory.Customer, id ConnID) (*sim.Job, error) {
	conn := c.conns.get(id)
	if conn == nil {
		return nil, fmt.Errorf("core: unknown connection %s", id)
	}
	if err := c.ledger.Verify(cust, connKey(id)); err != nil {
		return nil, err
	}
	switch conn.State {
	case StateActive, StateDown, StateRestoring:
		// A customer may cancel even mid-restoration; the in-flight
		// restoration job notices the state change and returns its
		// resources.
	default:
		return nil, fmt.Errorf("core: connection %s is %v; cannot disconnect", id, conn.State)
	}
	conn.settleUsage(c.k.Now())
	conn.State = StateTearingDown
	// Cancel any open restoration spans before tracing the teardown.
	conn.phaseSpan.EndOutcome("cancelled")
	conn.opSpan.EndOutcome("cancelled")
	conn.opSpan = c.tr.Start(obs.SpanRef{}, "op:teardown")
	conn.opSpan.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
	c.log(conn, "teardown", "requested by %s", cust)

	var job *sim.Job
	switch conn.Layer {
	case LayerDWDM:
		job = c.lightpathTeardownJob(conn.working(), conn.opSpan)
	case LayerOTN:
		job = c.circuitTeardownJob(conn, conn.opSpan)
	}
	job.OnDone(func(err error) {
		conn.opSpan.EndErr(err)
		c.ins.teardowns.Inc()
		c.ins.teardownSecs.ObserveDuration(job.Elapsed())
		pipes := touchedPipes(conn)
		c.releaseConnResources(conn)
		c.connUp(conn, "released")
		c.sla.Release(string(conn.ID), c.k.Now())
		c.retire(conn)
		c.log(conn, "released", "teardown took %v", job.Elapsed())
		c.journalCommit(commitSet{reason: "teardown", conns: []*Connection{conn}, pipes: pipes})
	})
	return job, nil
}

// retire marks a connection released, once releaseConnResources has returned
// what it held: it leaves the live view and drops its live half, keeping the
// row that lists, bills and reports for ever. A carrier released while its
// pipe still stands keeps the reference its journal record carries.
func (c *Controller) retire(conn *Connection) {
	conn.State = StateReleased
	conn.stable = StateReleased
	conn.ReleasedAt = c.k.Now()
	c.conns.retire(conn)
	if conn.carries == "" {
		conn.connLive = nil
	} else {
		conn.connLive = &connLive{carries: conn.carries}
	}
}

// releaseConnResources returns everything a connection holds: lightpaths or
// OTN slots, access capacity, quota, claims.
func (c *Controller) releaseConnResources(conn *Connection) {
	if conn.path != nil {
		c.releaseLightpath(conn.ID, conn.path)
		conn.path = nil
	}
	if conn.protect != nil {
		c.releaseLightpath(conn.ID, conn.protect)
		conn.protect = nil
	}
	if len(conn.pipes) > 0 {
		otn.ReleasePath(conn.pipes, string(conn.ID)) //lint:allow errcheck owned
		conn.pipes = nil
	}
	if len(conn.backup) > 0 {
		for _, p := range conn.backup {
			p.ReleaseShared(string(conn.ID)) //lint:allow errcheck may already be activated
		}
		conn.backup = nil
	}
	if !conn.Internal {
		c.releaseAccess(conn.From, conn.To, conn.Rate)
	}
	c.ledgerReleased(conn, c.ledger.Discharge(conn.Customer, conn.Rate))
	c.ledgerReleased(conn, c.ledger.Release(conn.Customer, connKey(conn.ID)))
}

// ledgerReleased records a ledger release of conn's that failed, as a
// violation for the audit sweep.
func (c *Controller) ledgerReleased(conn *Connection, err error) {
	if err != nil {
		c.releaseErrs = append(c.releaseErrs, fmt.Sprintf("connection %s: %v", conn.ID, err))
	}
}

// ConnectComposite provisions a >wavelength-granularity service as multiple
// component connections per PlaceRate (e.g. 12G = 10G DWDM + 2x1G OTN). It
// returns the components and a job completing when all are active. Components
// that fail admission cause the whole request to fail with nothing retained.
func (c *Controller) ConnectComposite(req Request) ([]*Connection, *sim.Job, error) {
	parts, err := PlaceRate(req.Rate)
	if err != nil {
		return nil, nil, err
	}
	var conns []*Connection
	var jobs []*sim.Job
	for _, rate := range parts {
		sub := req
		sub.Rate = rate
		sub.Protect = req.Protect
		if layerFor(rate) == LayerOTN && req.Protect == OnePlusOne {
			sub.Protect = SharedMesh
		}
		if layerFor(rate) == LayerDWDM && req.Protect == SharedMesh {
			sub.Protect = Restore
		}
		conn, job, err := c.Connect(sub)
		if err != nil {
			// Unwind the components already launched.
			var pipes []*otn.Pipe
			for _, done := range conns {
				done.State = StateTearingDown
				pipes = append(pipes, touchedPipes(done)...)
				c.releaseConnResources(done)
				c.retire(done)
				c.log(done, "released", "composite sibling failed")
			}
			if len(conns) > 0 {
				c.journalCommit(commitSet{reason: "composite-unwind", conns: conns, pipes: pipes})
			}
			return nil, nil, fmt.Errorf("core: composite %v component %v: %w", req.Rate, rate, err)
		}
		conns = append(conns, conn)
		jobs = append(jobs, job)
	}
	return conns, sim.All(c.k, jobs...), nil
}
