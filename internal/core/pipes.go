package core

import (
	"fmt"

	"griphon/internal/ems"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// connectCircuit reserves and configures a sub-wavelength OTN circuit. When
// the overlay lacks capacity between the two PoPs, the controller first
// lights a new wavelength between their OTN switches (a "pipe") — this is the
// integrated multi-layer behaviour of paper Fig. 3: the FXC steers the
// customer into the OTN switch, and the OTN switch's line side rides the
// DWDM layer.
func (c *Controller) connectCircuit(conn *Connection, a, b topo.NodeID) (*sim.Job, error) {
	if !c.fabric.HasSwitch(a) {
		return nil, fmt.Errorf("core: no OTN switch at PoP %s", a)
	}
	if !c.fabric.HasSwitch(b) {
		return nil, fmt.Errorf("core: no OTN switch at PoP %s", b)
	}
	slots, err := otn.SlotsFor(conn.Rate)
	if err != nil {
		return nil, err
	}
	conn.slots = slots

	// The circuit's chain: ensure overlay capacity, reserve slots, the
	// controller's overhead, program the electronic cross-connects.
	var pipes []*otn.Pipe
	g := sim.NewGraph(c.k)
	// Build a pipe if grooming cannot fit the circuit into existing ones.
	// Concurrent circuits between the same PoPs share one in-flight build
	// instead of each lighting a wavelength.
	ensure := g.Node(func() *sim.Job {
		p, err := c.fabric.FindPath(a, b, slots, nil)
		if err == nil {
			pipes = p
			return nil
		}
		if pending := c.pendingPipe(a, b); pending != nil {
			sp := c.tr.Start(conn.opSpan, "pipe:wait")
			pending.OnDone(func(err error) { sp.EndErr(err) })
			c.log(conn, "pipe-wait", "waiting for in-flight pipe %s-%s", a, b)
			return pending
		}
		c.log(conn, "pipe-build", "no OTN capacity %s->%s, lighting a new wavelength", a, b)
		sp := c.tr.Start(conn.opSpan, "pipe:wait")
		j := c.startPipeBuild(a, b, otn.ODU2)
		j.OnDone(func(err error) { sp.EndErr(err) })
		return j
	})
	reserve := g.Node(func() *sim.Job {
		var err error
		pipes, err = c.reserveCircuit(conn, a, b, pipes)
		return c.k.CompletedJob(err)
	})
	overhead := g.Node(func() *sim.Job {
		osp := c.tr.Start(conn.opSpan, "controller-overhead")
		j := c.k.AfterJob(c.jit(c.lat.ControllerOverhead), nil)
		j.OnDone(func(err error) { osp.EndErr(err) })
		return j
	})
	program := g.Node(func() *sim.Job {
		return c.retrying(conn.opSpan, &opBudget{}, func() *sim.Job {
			return c.otnEMS.SubmitBatch(c.circuitProgramCmds(len(pipes)+1, conn.opSpan))
		})
	})
	g.Edge(ensure, reserve)
	g.Edge(reserve, overhead)
	g.Edge(overhead, program)
	job := g.Go()
	job.OnDone(func(err error) { c.finishSetup(conn, err) })
	return job, nil
}

// reserveCircuit books conn's tributary slots on pipes, the path found when
// capacity was ensured (nil when the circuit waited for a pipe), and a
// best-effort shared-mesh backup. It returns the path it booked.
func (c *Controller) reserveCircuit(conn *Connection, a, b topo.NodeID, pipes []*otn.Pipe) ([]*otn.Pipe, error) {
	if conn.State != StatePending {
		// Released while waiting for the pipe (a composite sibling
		// failed): nothing is left to hold slots for.
		return nil, fmt.Errorf("core: connection %s was %v before its slots were reserved", conn.ID, conn.State)
	}
	// The path was found in an earlier kernel event; housekeeping may have
	// retired one of its pipes in between (an idle pipe carries no hint that
	// a setup intends to use it). Reserving on such a ghost would strand the
	// circuit on a pipe whose wavelength is being torn down — re-resolve
	// instead.
	for _, p := range pipes {
		if c.fabric.Pipe(p.ID()) == nil {
			c.log(conn, "pipe-stale", "pipe %s retired mid-setup, re-routing", p.ID())
			pipes = nil
			break
		}
	}
	if pipes == nil {
		p, err := c.fabric.FindPath(a, b, conn.slots, nil)
		if err != nil {
			return nil, err
		}
		pipes = p
	}
	if err := otn.ReservePath(pipes, string(conn.ID), conn.slots); err != nil {
		return nil, err
	}
	conn.pipes = pipes
	if conn.Protect == SharedMesh {
		c.reserveSharedBackup(conn, a, b)
	}
	return pipes, nil
}

// reserveSharedBackup books a pipe-disjoint backup path with shared-mesh
// reservations. Shared mesh uses existing spare capacity only; when no
// disjoint overlay path exists the circuit proceeds unprotected (it will wait
// for DWDM-layer restoration of its pipes instead).
func (c *Controller) reserveSharedBackup(conn *Connection, a, b topo.NodeID) {
	avoid := map[otn.PipeID]bool{}
	for _, p := range conn.pipes {
		avoid[p.ID()] = true
	}
	backup, err := c.fabric.FindPath(a, b, 0, avoid)
	if err != nil {
		c.log(conn, "no-backup", "no disjoint OTN path for shared mesh: %v", err)
		return
	}
	if err := otn.ReserveSharedPath(backup, string(conn.ID), conn.slots); err != nil {
		c.log(conn, "no-backup", "shared reservation failed: %v", err)
		return
	}
	conn.backup = backup
}

// circuitProgramCmds is the OTN EMS batch for programming a circuit across
// nSwitches switches.
func (c *Controller) circuitProgramCmds(nSwitches int, parent obs.SpanRef) []ems.Command {
	cmds := make([]ems.Command, 0, nSwitches)
	for i := 0; i < nSwitches; i++ {
		cmds = append(cmds, ems.Command{
			Name: fmt.Sprintf("odu-xc:%d", i),
			Dur:  c.jit(c.lat.OTNProgramPerSwitch),
			Span: parent,
		})
	}
	return cmds
}

// circuitTeardownJob is the (fast, electronic) release choreography for an
// OTN circuit.
func (c *Controller) circuitTeardownJob(conn *Connection, parent obs.SpanRef) *sim.Job {
	ctl := c.jit(c.lat.TeardownController)
	g := sim.NewGraph(c.k)
	wait := g.Node(func() *sim.Job { return c.k.AfterJob(ctl, nil) })
	program := g.Node(func() *sim.Job {
		return c.retrying(parent, &opBudget{}, func() *sim.Job {
			return c.otnEMS.SubmitBatch(c.circuitProgramCmds(len(conn.pipes)+1, parent))
		})
	})
	g.Edge(wait, program)
	return g.Go()
}

// pendingKey canonicalizes a node pair.
func pendingKey(a, b topo.NodeID) string {
	if b < a {
		a, b = b, a
	}
	return string(a) + "|" + string(b)
}

// pendingPipe returns the in-flight build job for a node pair, if any.
func (c *Controller) pendingPipe(a, b topo.NodeID) *sim.Job {
	return c.pendingPipes[pendingKey(a, b)]
}

// startPipeBuild launches a pipe build and registers it so concurrent
// requests can wait on it.
func (c *Controller) startPipeBuild(a, b topo.NodeID, level otn.Level) *sim.Job {
	key := pendingKey(a, b)
	job := c.buildPipe(a, b, level)
	c.pendingPipes[key] = job
	job.OnDone(func(error) { delete(c.pendingPipes, key) })
	return job
}

// buildPipe lights a carrier-owned wavelength between two OTN switches and
// registers the resulting pipe in the overlay. The returned job completes
// when the pipe is usable.
func (c *Controller) buildPipe(a, b topo.NodeID, level otn.Level) *sim.Job {
	rate := level.ClientRate()
	carrier := &Connection{
		ID:          c.newConnID(),
		Customer:    CarrierCustomer,
		Rate:        rate,
		Layer:       LayerDWDM,
		Protect:     Restore,
		State:       StatePending,
		RequestedAt: c.k.Now(),
		Internal:    true,
		connLive:    &connLive{},
	}
	out := c.k.NewJob()
	// The carrier's own admission and claim ride one transaction: a routing
	// failure below hands both back in LIFO order.
	adm := inventory.NewTxn()
	if err := adm.Do(
		func() error { return c.ledger.Admit(CarrierCustomer, rate) },
		func() { c.ledger.Discharge(CarrierCustomer, rate) }, //lint:allow errcheck undoing our own admit
	); err != nil {
		out.Complete(err)
		return out
	}
	if err := adm.Do(
		func() error { return c.ledger.Claim(CarrierCustomer, connKey(carrier.ID)) },
		func() { c.ledger.Release(CarrierCustomer, connKey(carrier.ID)) }, //lint:allow errcheck undoing our own claim
	); err != nil {
		adm.Rollback()
		out.Complete(err)
		return out
	}
	carrier.opSpan = c.tr.Start(obs.SpanRef{}, "op:pipe-build")
	carrier.opSpan.SetConn(string(carrier.ID), string(CarrierCustomer), LayerDWDM.String())

	// Carrier wavelengths terminate on OTN switch line cards, not on
	// customer FXC client ports, so no FXC pair is taken.
	lp, err := c.reserveLightpath(carrier.ID, a, b, rate, carrier.Protect, nil, nil, false, carrier.opSpan)
	if err != nil {
		carrier.opSpan.EndErr(err)
		adm.Rollback()
		out.Complete(fmt.Errorf("core: cannot light pipe %s-%s: %w", a, b, err))
		return out
	}
	adm.Commit()
	carrier.path = lp
	c.conns.insert(carrier)
	c.log(carrier, "request", "carrier pipe wavelength %s->%s %v", a, b, rate)

	c.lightpathSetupJob(lp, carrier.opSpan).OnDone(func(err error) {
		c.finishSetup(carrier, err)
		if err != nil {
			out.Complete(err)
			return
		}
		pipe, perr := c.fabric.AddPipe(a, b, level)
		if perr != nil {
			out.Complete(perr)
			return
		}
		c.pipeCarrier[pipe.ID()] = carrier.ID
		carrier.carries = pipe.ID()
		c.log(carrier, "pipe-up", "pipe %s in service (%v, %d slots)", pipe.ID(), level, pipe.TotalSlots())
		c.journalCommit(commitSet{reason: "pipe-up", conns: []*Connection{carrier}, pipes: []*otn.Pipe{pipe}})
		out.Complete(nil)
	})
	return out
}

// EnsurePipe pre-builds OTN overlay capacity between two PoPs — used to
// pre-groom the network before load experiments and by operators planning
// ahead (paper §4, network resource planning). The job completes when the
// pipe is in service.
func (c *Controller) EnsurePipe(a, b topo.NodeID, level otn.Level) (*sim.Job, error) {
	if !c.fabric.HasSwitch(a) {
		return nil, fmt.Errorf("core: no OTN switch at PoP %s", a)
	}
	if !c.fabric.HasSwitch(b) {
		return nil, fmt.Errorf("core: no OTN switch at PoP %s", b)
	}
	return c.buildPipe(a, b, level), nil
}

// PipeCarrier returns the internal connection carrying a pipe ("" if none).
func (c *Controller) PipeCarrier(id otn.PipeID) ConnID { return c.pipeCarrier[id] }

// ReclaimIdlePipes retires every pipe that carries no circuits and holds no
// shared-mesh reservations, tearing down its carrier wavelength so the
// transponders and spectrum return to the shared pool (the carrier-side
// "intelligent re-use of the pool of resources", paper §1). It returns a job
// completing when the teardowns finish and the number of pipes reclaimed.
func (c *Controller) ReclaimIdlePipes() (*sim.Job, int) {
	var jobs []*sim.Job
	n := 0
	for _, pipe := range c.fabric.Pipes() {
		if pipe.UsedSlots() > 0 || len(pipe.SharedOwners()) > 0 || !pipe.Up() {
			continue
		}
		carrierID := c.pipeCarrier[pipe.ID()]
		carrier := c.conns.get(carrierID)
		if carrier == nil || carrier.State != StateActive {
			continue
		}
		if err := c.fabric.RemovePipe(pipe.ID()); err != nil {
			continue
		}
		delete(c.pipeCarrier, pipe.ID())
		carrier.carries = ""
		c.log(carrier, "pipe-retire", "pipe %s idle, reclaiming its wavelength", pipe.ID())
		c.journalCommit(commitSet{reason: "pipe-retire", conns: []*Connection{carrier}, delPipes: []otn.PipeID{pipe.ID()}})
		job, err := c.Disconnect(CarrierCustomer, carrierID)
		if err != nil {
			continue
		}
		jobs = append(jobs, job)
		n++
	}
	return sim.All(c.k, jobs...), n
}

// circuitsOnPipe returns the live OTN circuits riding the pipe.
func (c *Controller) circuitsOnPipe(id otn.PipeID) []*Connection {
	var out []*Connection
	for _, conn := range c.conns.live {
		if conn.Layer != LayerOTN {
			continue
		}
		for _, p := range conn.pipes {
			if p.ID() == id {
				out = append(out, conn)
				break
			}
		}
	}
	return out
}
