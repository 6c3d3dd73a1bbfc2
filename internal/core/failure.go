package core

import (
	"fmt"
	"time"

	"griphon/internal/alarms"
	"griphon/internal/obs"
	"griphon/internal/otn"
	"griphon/internal/topo"
)

// CutFiber fails a fiber link: every wavelength on it loses light, affected
// connections alarm, and — per the paper's automation story — detection,
// localization and restoration proceed without operator involvement. With
// Config.AutoRepair a repair crew is dispatched (4–12 h). On shard 0 of a
// ShardSet the cut reaches every shard's plant replica, and each shard
// restores its own customers.
func (c *Controller) CutFiber(link topo.LinkID) error {
	if c.g.Link(link) == nil {
		return fmt.Errorf("core: unknown link %s", link)
	}
	if !c.plant.LinkUp(link) {
		return fmt.Errorf("core: link %s is already down", link)
	}
	c.cut(link, false)
	if c.autoRepair {
		c.sendCrew(link, "")
	}
	return nil
}

// cut takes a link down on every plant replica. A planned cut is
// maintenance: the SLA ledger attributes its hits to planned work rather
// than a plant failure.
func (c *Controller) cut(link topo.LinkID, planned bool) {
	for _, r := range c.replicas {
		r.planned = planned
		r.plant.SetLinkUp(link, false)
		r.ins.cuts.Inc()
		r.log(nil, "fiber-cut", "link %s cut", link)
		for _, conn := range r.liveConns() {
			r.hitByCut(conn, link)
		}
		r.planned = false
		// One commit for the whole synchronous blast radius: downed
		// connections, failed pipes, and the authoritative down-link set. A
		// released connection's record cannot change, so only live ones are
		// written.
		r.journalCommit(commitSet{reason: "fiber-cut", conns: r.conns.live, pipes: r.fabric.Pipes(), links: true})
	}
}

// sendCrew dispatches a cut link's repair crew, its time drawn from this
// controller's kernel; a repair that comes first calls it off.
func (c *Controller) sendCrew(link topo.LinkID, why string) {
	crew := c.lat.FiberRepair(c.k.Rand())
	c.log(nil, "repair-dispatch", "crew for %s%s, ETA %v", link, why, crew)
	c.crews[link] = c.k.After(crew, func() { c.RepairFiber(link) }) //lint:allow errcheck best-effort auto repair
}

// hitByCut applies a fiber cut to one connection.
func (c *Controller) hitByCut(conn *Connection, link topo.LinkID) {
	if conn.Layer != LayerDWDM {
		return // OTN circuits fail via their pipes, handled below
	}
	if conn.State != StateActive {
		return
	}
	lp := conn.working()
	if lp == nil || !lp.route.Path.HasLink(link) {
		// A 1+1 standby leg can die while traffic rides the other leg;
		// traffic is unaffected but the loss is worth surfacing.
		if conn.Protect == OnePlusOne {
			standby := conn.protect
			if conn.onProtect {
				standby = conn.path
			}
			if standby != nil && standby.route.Path.HasLink(link) {
				c.log(conn, "standby-hit", "standby leg lost on %s", link)
			}
		}
		return
	}

	if conn.Protect == OnePlusOne {
		c.protectionSwitch(conn, link)
		return
	}

	phase := "detect"
	if conn.Protect != Restore {
		phase = "repair-wait" // unprotected: down until the fiber is repaired
	}
	c.connDown(conn, c.cutCause(), link, fmt.Sprintf("working path lost on %s", link), phase)
	conn.State = StateDown
	conn.stable = StateDown
	if conn.Protect == Restore {
		// op:restore spans the whole outage; its children tile it:
		// detect (cut -> correlated alarms), localize, provision.
		conn.opSpan = c.tr.Start(obs.SpanRef{}, "op:restore")
		conn.opSpan.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
		conn.phaseSpan = c.tr.Start(conn.opSpan, "restore:detect")
	}
	c.log(conn, "down", "working path lost on %s", link)
	c.failCarriedPipe(conn, link)

	// LOS alarms from both terminating ROADMs reach the controller after
	// the alarm latency and enter the correlation window.
	path := lp.route.Path
	c.k.After(c.jit(c.lat.AlarmLatency), func() {
		c.correlator.Observe(alarms.Alarm{
			At: c.k.Now(), Node: path.Src(), Conn: string(conn.ID),
			Customer: string(conn.Customer), Type: alarms.LOS, Detail: "loss of light",
		})
		c.correlator.Observe(alarms.Alarm{
			At: c.k.Now(), Node: path.Dst(), Conn: string(conn.ID),
			Customer: string(conn.Customer), Type: alarms.LOS, Detail: "loss of light",
		})
	})
}

// protectionSwitch performs the autonomous 1+1 tail-end switch: if the other
// leg is healthy, traffic moves to it in ~50 ms with no controller handshake.
func (c *Controller) protectionSwitch(conn *Connection, link topo.LinkID) {
	var target *lightpath
	if conn.onProtect {
		target = conn.path
	} else {
		target = conn.protect
	}
	c.connDown(conn, c.cutCause(), link, fmt.Sprintf("1+1 working leg lost on %s", link), "switch")
	if target == nil || !c.plant.PathUp(target.route.Path) {
		conn.State = StateDown
		conn.stable = StateDown
		c.slaPhase(conn, "repair-wait")
		c.log(conn, "down", "both 1+1 legs lost")
		c.failCarriedPipe(conn, link)
		return
	}
	conn.opSpan = c.tr.Start(obs.SpanRef{}, "op:protect-switch")
	conn.opSpan.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
	c.k.After(c.jit(c.lat.ProtectionSwitch), func() {
		if conn.State != StateActive && conn.State != StateDown {
			// Torn down (or released) during the switch window: the
			// teardown path owns the connection now; do not revive it.
			return
		}
		// The standby leg may itself have been cut during the ~50 ms
		// window. Switching traffic onto a dead leg and declaring the
		// connection Active would mask a real outage.
		if !c.plant.PathUp(target.route.Path) {
			if conn.State == StateActive {
				conn.State = StateDown
				conn.stable = StateDown
				c.slaPhase(conn, "repair-wait")
				c.slaBlock(conn, "standby leg lost during switch window")
				c.log(conn, "down", "both 1+1 legs lost")
				c.failCarriedPipe(conn, link)
				conns, pipes := c.carriedEntities(conn)
				c.journalCommit(commitSet{reason: "protect-switch-failed", conns: conns, pipes: pipes})
			}
			conn.opSpan.EndOutcome("blocked")
			return
		}
		conn.onProtect = !conn.onProtect
		conn.State = StateActive
		conn.stable = StateActive
		c.connUp(conn, "protect-switch")
		conn.opSpan.End()
		c.ins.protSwitches.Inc()
		c.log(conn, "protect-switch", "traffic on %s leg", map[bool]string{true: "protect", false: "working"}[conn.onProtect])
		c.journalCommit(commitSet{reason: "protect-switch", conns: []*Connection{conn}})
	})
}

// failCarriedPipe propagates a carrier wavelength failure into the OTN layer.
// link names the cut fiber that killed the carrier, for outage attribution.
func (c *Controller) failCarriedPipe(conn *Connection, link topo.LinkID) {
	if !conn.Internal || conn.carries == "" {
		return
	}
	pipe := c.fabric.Pipe(conn.carries)
	if pipe == nil || !pipe.Up() {
		return
	}
	pipe.SetUp(false)
	c.log(conn, "pipe-down", "pipe %s lost its wavelength", pipe.ID())
	for _, circuit := range c.circuitsOnPipe(pipe.ID()) {
		c.failCircuit(circuit, pipe.ID(), link)
	}
}

// failCircuit handles an OTN circuit losing one of its pipes: shared-mesh
// activation when a backup exists (sub-second), otherwise the circuit waits
// for the pipe to be restored.
func (c *Controller) failCircuit(conn *Connection, pipe otn.PipeID, link topo.LinkID) {
	if conn.State != StateActive {
		return
	}
	c.connDown(conn, c.cutCause(), link, fmt.Sprintf("pipe %s failed", pipe), "detect")
	conn.State = StateDown
	conn.stable = StateDown
	conn.opSpan = c.tr.Start(obs.SpanRef{}, "op:restore")
	conn.opSpan.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
	conn.phaseSpan = c.tr.Start(conn.opSpan, "restore:detect")
	c.log(conn, "down", "pipe %s failed", pipe)

	if len(conn.backup) == 0 {
		// op:restore stays open: it closes when the DWDM layer restores
		// the pipe and the circuit revives.
		conn.phaseSpan.EndOutcome("no-backup")
		c.slaPhase(conn, "repair-wait")
		return // wait for DWDM-layer restoration of the pipe
	}
	// Backup must itself be alive.
	for _, p := range conn.backup {
		if !p.Up() {
			conn.phaseSpan.EndOutcome("blocked")
			c.slaPhase(conn, "repair-wait")
			c.slaBlock(conn, fmt.Sprintf("shared-mesh backup pipe %s also down", p.ID()))
			c.ins.restoreBlocked.Inc()
			c.log(conn, "restore-blocked", "shared-mesh backup pipe %s also down", p.ID())
			return
		}
	}
	detect := c.jit(c.lat.OTNDetect)
	c.k.After(detect, func() {
		if conn.State != StateDown {
			return
		}
		conn.phaseSpan.End()
		conn.phaseSpan = c.tr.Start(conn.opSpan, "restore:activate")
		c.slaPhase(conn, "activate")
		if err := otn.ActivatePath(conn.backup, string(conn.ID)); err != nil {
			conn.phaseSpan.EndOutcome("blocked")
			conn.opSpan.EndOutcome("blocked")
			c.slaPhase(conn, "repair-wait")
			c.slaBlock(conn, fmt.Sprintf("shared-mesh activation failed: %v", err))
			c.ins.restoreBlocked.Inc()
			c.log(conn, "restore-blocked", "shared-mesh activation failed: %v", err)
			return
		}
		// Reprogram the switches along the backup (sub-second total).
		nSwitches := len(conn.backup) + 1
		total := c.jit(time.Duration(nSwitches) * c.lat.OTNActivatePerSwitch)
		c.k.After(total, func() {
			if conn.State != StateDown {
				return
			}
			otn.ReleasePath(conn.pipes, string(conn.ID)) //lint:allow errcheck leaving old path
			conn.pipes = conn.backup
			conn.backup = nil
			d := c.k.Now().Sub(conn.outageStart)
			conn.State = StateActive
			conn.stable = StateActive
			c.connUp(conn, "mesh-restored")
			conn.Restorations++
			conn.phaseSpan.End()
			conn.opSpan.End()
			c.ins.restored.Inc()
			c.ins.restoreSecs[LayerOTN].Observe(d.Seconds())
			c.log(conn, "restored", "shared-mesh restoration in %v", conn.TotalOutage)
			c.journalCommit(commitSet{reason: "mesh-restore", conns: []*Connection{conn}})
		})
	})
}

// RepairFiber returns a link to service and revives connections whose
// working path is whole again (the "wait for repair" recovery of unprotected
// services, and restore-mode connections that found no alternate capacity).
// A crew still on its way to the link is called off. On shard 0 of a
// ShardSet the repair reaches every shard's plant replica at this instant.
func (c *Controller) RepairFiber(link topo.LinkID) error {
	if c.g.Link(link) == nil {
		return fmt.Errorf("core: unknown link %s", link)
	}
	if c.plant.LinkUp(link) {
		return fmt.Errorf("core: link %s is not down", link)
	}
	c.crews[link].Stop()
	delete(c.crews, link)
	for _, r := range c.replicas {
		r.repair(link)
	}
	return nil
}

// repair returns a link to service on this controller's plant replica.
func (c *Controller) repair(link topo.LinkID) {
	c.plant.SetLinkUp(link, true)
	c.ins.repairs.Inc()
	c.log(nil, "repair", "link %s repaired", link)

	for _, conn := range c.liveConns() {
		if conn.State != StateDown {
			continue
		}
		switch conn.Layer {
		case LayerDWDM:
			lp := conn.working()
			if lp != nil && c.plant.PathUp(lp.route.Path) {
				conn.State = StateActive
				conn.stable = StateActive
				c.connUp(conn, "revived")
				conn.phaseSpan.EndOutcome("revived")
				conn.opSpan.EndOutcome("revived")
				c.log(conn, "revived", "working path whole again after repair")
				c.revivePipe(conn)
				continue
			}
			// A 1+1 connection revives on whichever leg is whole.
			if conn.Protect == OnePlusOne {
				other := conn.protect
				if conn.onProtect {
					other = conn.path
				}
				if other != nil && c.plant.PathUp(other.route.Path) {
					conn.onProtect = !conn.onProtect
					conn.State = StateActive
					conn.stable = StateActive
					c.connUp(conn, "revived")
					c.log(conn, "revived", "switched to repaired leg")
				}
			}
		case LayerOTN:
			c.reviveCircuitIfWhole(conn)
		}
	}

	// One commit for the synchronous revival sweep.
	c.journalCommit(commitSet{reason: "repair", conns: c.conns.live, pipes: c.fabric.Pipes(), links: true})
}

// revivePipe brings a carrier connection's pipe back and revives circuits.
func (c *Controller) revivePipe(conn *Connection) {
	if !conn.Internal || conn.carries == "" {
		return
	}
	pipe := c.fabric.Pipe(conn.carries)
	if pipe == nil || pipe.Up() {
		return
	}
	pipe.SetUp(true)
	c.log(conn, "pipe-up", "pipe %s back in service", pipe.ID())
	for _, circuit := range c.circuitsOnPipe(pipe.ID()) {
		c.reviveCircuitIfWhole(circuit)
	}
}

// reviveCircuitIfWhole returns a down OTN circuit to service when every pipe
// it rides is up again.
func (c *Controller) reviveCircuitIfWhole(conn *Connection) {
	if conn.State != StateDown {
		return
	}
	for _, p := range conn.pipes {
		if !p.Up() {
			return
		}
	}
	conn.State = StateActive
	conn.stable = StateActive
	c.connUp(conn, "revived")
	conn.phaseSpan.EndOutcome("revived")
	conn.opSpan.EndOutcome("revived")
	c.log(conn, "revived", "all pipes whole again")
}

// carriedEntities returns the commit entities affected when a carrier
// wavelength's state change propagates into the OTN layer: the carrier
// itself, its pipe, and every circuit riding that pipe.
func (c *Controller) carriedEntities(conn *Connection) ([]*Connection, []*otn.Pipe) {
	conns := []*Connection{conn}
	if !conn.Internal || conn.carries == "" {
		return conns, nil
	}
	pipe := c.fabric.Pipe(conn.carries)
	if pipe == nil {
		return conns, nil
	}
	return append(conns, c.circuitsOnPipe(pipe.ID())...), []*otn.Pipe{pipe}
}

// onAlarmBatch is the correlation-window sink: localize the fault, then
// launch automated restoration for every restorable connection in the batch.
func (c *Controller) onAlarmBatch(batch []alarms.Alarm) {
	seen := map[ConnID]bool{}
	var alarmedConns []*Connection
	for _, a := range batch {
		id := ConnID(a.Conn)
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		if conn := c.conns.get(id); conn != nil {
			alarmedConns = append(alarmedConns, conn)
		}
	}

	var alarmedPaths, healthyPaths []topo.Path
	for _, conn := range alarmedConns {
		if lp := conn.working(); lp != nil {
			alarmedPaths = append(alarmedPaths, lp.route.Path)
		}
	}
	for _, conn := range c.conns.live {
		if conn.Layer == LayerDWDM && conn.State == StateActive {
			if lp := conn.working(); lp != nil {
				healthyPaths = append(healthyPaths, lp.route.Path)
			}
		}
	}
	suspects := alarms.PrimarySuspects(alarms.Localize(alarmedPaths, healthyPaths))
	c.log(nil, "localized", "%d alarms -> suspects %v", len(batch), suspects)
	c.recordAlarmBatch(batch, suspects)

	// The correlated alarms have arrived: detection is over, localization
	// begins — the phase spans tile the op:restore interval exactly.
	for _, conn := range alarmedConns {
		if conn.State == StateDown && conn.Protect == Restore {
			conn.phaseSpan.End()
			conn.phaseSpan = c.tr.Start(conn.opSpan, "restore:localize")
			c.slaPhase(conn, "localize")
		}
	}

	c.k.After(c.jit(c.lat.Localize), func() {
		for _, conn := range alarmedConns {
			if conn.State == StateDown && conn.Protect == Restore {
				c.startRestoration(conn, suspects)
			}
		}
	})
}

// startRestoration re-provisions a down connection onto a new route that
// avoids the suspect links, reusing its terminating OTs and FXC ports. The
// new path needs the full wavelength-setup choreography, so restoration takes
// on the order of a setup time — minutes, not the hours of manual repair
// (paper Table 1).
func (c *Controller) startRestoration(conn *Connection, suspects []topo.LinkID) {
	old := conn.working()
	if old == nil {
		return
	}
	// Localization done; the provisioning phase covers route search, EMS
	// choreography and verification until the outage ends.
	conn.phaseSpan.End()
	conn.phaseSpan = c.tr.Start(conn.opSpan, "restore:provision")
	c.slaPhase(conn, "provision")
	avoid := map[topo.LinkID]bool{}
	for _, l := range suspects {
		avoid[l] = true
	}
	a, b := old.route.Path.Src(), old.route.Path.Dst()
	newlp, err := c.reserveLightpath(conn.ID, a, b, conn.Rate, conn.Protect, avoid, old, false, conn.phaseSpan)
	if err != nil {
		conn.phaseSpan.EndOutcome("blocked")
		conn.opSpan.EndOutcome("blocked")
		c.slaPhase(conn, "repair-wait")
		c.slaBlock(conn, fmt.Sprintf("no restoration path: %v", err))
		c.ins.restoreBlocked.Inc()
		c.log(conn, "restore-blocked", "no restoration path: %v", err)
		return // stays Down; revived on repair
	}
	conn.State = StateRestoring
	c.log(conn, "restore-start", "re-provisioning onto %s", newlp.route.Path)

	c.lightpathSetupJob(newlp, conn.phaseSpan).OnDone(func(err error) {
		if conn.State != StateRestoring {
			// Torn down mid-restoration; return the new resources.
			c.releaseLightpathMiddle(newlp)
			return
		}
		if err != nil {
			c.releaseLightpathMiddle(newlp)
			conn.State = StateDown
			conn.phaseSpan.EndOutcome("blocked")
			conn.opSpan.EndOutcome("blocked")
			c.slaPhase(conn, "repair-wait")
			c.slaBlock(conn, fmt.Sprintf("EMS failure: %v", err))
			c.ins.restoreBlocked.Inc()
			c.log(conn, "restore-blocked", "EMS failure: %v", err)
			return
		}
		if !c.plant.PathUp(newlp.route.Path) {
			// The restoration path itself was cut while being built.
			c.releaseLightpathMiddle(newlp)
			conn.State = StateDown
			conn.phaseSpan.EndOutcome("blocked")
			conn.opSpan.EndOutcome("blocked")
			c.slaPhase(conn, "repair-wait")
			c.slaBlock(conn, "restoration path failed during setup")
			c.ins.restoreBlocked.Inc()
			c.log(conn, "restore-blocked", "restoration path failed during setup")
			return
		}
		c.releaseLightpathMiddle(old)
		conn.path = newlp
		conn.onProtect = false
		d := c.k.Now().Sub(conn.outageStart)
		conn.State = StateActive
		conn.stable = StateActive
		c.connUp(conn, "restored")
		conn.Restorations++
		conn.phaseSpan.End()
		conn.opSpan.End()
		c.ins.restored.Inc()
		c.ins.restoreSecs[LayerDWDM].Observe(d.Seconds())
		c.log(conn, "restored", "outage %v", conn.TotalOutage)
		c.revivePipe(conn)
		conns, pipes := c.carriedEntities(conn)
		c.journalCommit(commitSet{reason: "restore", conns: conns, pipes: pipes})
	})
}
