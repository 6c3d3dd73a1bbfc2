package core

import (
	"fmt"

	"griphon/internal/ems"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Choreography selects how a lightpath's EMS work is ordered
// (Config.Choreography).
type Choreography int

const (
	// ChoreoSerial reproduces the paper's fully serialized choreography —
	// every EMS step waits for the previous one, which is where the 60–70 s
	// setup times come from. It is the default so the Table 2 calibration
	// holds unless a deployment opts in to the fast path.
	ChoreoSerial Choreography = iota
	// ChoreoGraph runs the dependency-graph choreography: only real
	// happens-before constraints are kept (see lightpathSetupJob), so
	// independent elements configure concurrently and setup latency drops
	// to the critical path.
	ChoreoGraph
)

func (ch Choreography) String() string {
	switch ch {
	case ChoreoSerial:
		return "serial"
	case ChoreoGraph:
		return "graph"
	}
	return fmt.Sprintf("Choreography(%d)", int(ch))
}

// A choreoPlan is one lightpath setup or teardown, its steps declared once:
// the controller's own (its overhead or bookkeeping, the two FXC legs) and
// groups of ROADM-EMS commands. The choreography picks only the edges and the
// batching. Under ChoreoGraph every step is a node, edge wires them, and each
// group is its own submission whose commands take their elements' lanes.
// Under ChoreoSerial, the paper's ladder, the own steps form a chain in
// declaration order, edge does nothing, and the groups join, in declaration
// order, the one lane-less batch that ends the chain. Every submission is
// wrapped in the retry policy, sharing one backoff budget for the whole
// choreography; the commands are pure latency (no Apply), so a resubmitted
// step re-runs the vendor dialogue without double-mutating state.
type choreoPlan struct {
	c      *Controller
	g      *sim.Graph
	sp     obs.SpanRef
	bud    opBudget
	groups []cmdGroup // serial: the batch's groups, in declaration order
	// buf backs groups, so declaring a setup's six costs no allocation.
	buf [6]cmdGroup
}

// A cmdGroup appends one step's ROADM-EMS commands to cmds, drawing their
// jitter, each time the step is submitted.
type cmdGroup func(cmds []ems.Command) []ems.Command

// newPlan starts a plan under a span named name.
func (c *Controller) newPlan(parent obs.SpanRef, name string) *choreoPlan {
	p := &choreoPlan{c: c, g: sim.NewGraph(c.k), sp: c.tr.Start(parent, name)}
	p.groups = p.buf[:0]
	return p
}

// fxc adds an FXC leg: one command on node's FXC controller.
func (p *choreoPlan) fxc(node topo.NodeID, name string, base sim.Duration) sim.NodeID {
	return p.g.Node(func() *sim.Job {
		return p.c.retrying(p.sp, &p.bud, func() *sim.Job {
			return p.c.fxcEMS[node].Submit(ems.Command{Name: name, Dur: p.c.jit(base), Span: p.sp})
		})
	})
}

// group adds a step of ROADM-EMS commands. Like warm, it returns the step's
// node for edge, or -1 under the serial choreography, which has none.
func (p *choreoPlan) group(cmds cmdGroup) sim.NodeID {
	if p.c.choreo != ChoreoGraph {
		p.groups = append(p.groups, cmds)
		return -1
	}
	return p.g.Node(p.submit(cmds))
}

// one adds a step of a single ROADM-EMS command.
func (p *choreoPlan) one(name, lane string, base sim.Duration) sim.NodeID {
	return p.group(func(cmds []ems.Command) []ems.Command { return p.cmd(cmds, name, lane, "", base) })
}

// warm adds a command step the warm pools have already done — a pre-opened
// session, transponders already on the wavelength: an instantaneous barrier
// in the graph, which keeps its dependency structure uniform, and nothing in
// the serial batch.
func (p *choreoPlan) warm() sim.NodeID {
	if p.c.choreo != ChoreoGraph {
		return -1
	}
	return p.g.Node(nil)
}

// edge declares a happens-before constraint of the graph choreography.
func (p *choreoPlan) edge(from, to sim.NodeID) {
	if p.c.choreo == ChoreoGraph {
		p.g.Edge(from, to)
	}
}

// cmd appends one command with its duration jittered. Under the graph
// choreography it takes the element lane lane+node.
func (p *choreoPlan) cmd(cmds []ems.Command, name, lane string, node topo.NodeID, base sim.Duration) []ems.Command {
	cmd := ems.Command{Name: name, Dur: p.c.jit(base), Span: p.sp}
	if p.c.choreo == ChoreoGraph {
		cmd.Elem = lane + string(node)
	}
	return append(cmds, cmd)
}

// submit is a node submitting cmds to the ROADM EMS as one batch.
func (p *choreoPlan) submit(cmds cmdGroup) func() *sim.Job {
	return func() *sim.Job {
		return p.c.retrying(p.sp, &p.bud, func() *sim.Job { return p.c.roadmEMS.SubmitBatch(cmds(nil)) })
	}
}

// run starts the plan and returns its job, which ends the plan's span.
func (p *choreoPlan) run() *sim.Job {
	if p.c.choreo != ChoreoGraph {
		batch := p.g.Node(p.submit(func(cmds []ems.Command) []ems.Command {
			for _, grp := range p.groups {
				cmds = grp(cmds)
			}
			return cmds
		}))
		for n := sim.NodeID(1); n <= batch; n++ {
			p.g.Edge(n-1, n)
		}
	}
	job := p.g.Go()
	job.OnDone(func(err error) { p.sp.EndErr(err) })
	return job
}

// lightpathSetupJob runs the EMS choreography for one lightpath and returns
// the job completing when light is verified end to end. The graph
// choreography keeps only the real happens-before constraints:
//
//	overhead ─┬─ fxc-connect:a ──────────────────────────┐
//	          ├─ fxc-connect:b ──────────────────────────┤
//	          └─ ems-session ─┬─ elements (batch) ─┐     │
//	                          └─ laser-tune ───────┴─ power ─ equalize ─ verify
//
// Both FXC connects run concurrently (separate per-PoP controllers); the
// per-element ROADM configuration is one atomic batch whose commands land on
// per-element lanes, so independent ROADMs configure concurrently; laser
// tuning overlaps element configuration; and only the optical chain —
// per-hop power balance, link equalization, end-to-end verification — stays
// ordered, serialized on the EMS's optical lane. Warm claims shrink the
// critical path further: a pre-opened session skips the session step, warm
// transponders shrink or remove laser-tune.
func (c *Controller) lightpathSetupJob(lp *lightpath, parent obs.SpanRef) *sim.Job {
	path := lp.route.Path
	a, b := path.Src(), path.Dst()
	hops := path.Hops()
	p := c.newPlan(parent, "lightpath:setup")
	claim := c.claimWarm(a, b)

	// The controller's own admission, path computation and database time. A
	// cache-hit lightpath pays the (much smaller) cached overhead: the route
	// came out of the path cache instead of a fresh K-shortest search.
	overhead := p.g.Node(func() *sim.Job {
		d := c.lat.ControllerOverhead
		if lp.cached && c.lat.ControllerOverheadCached > 0 {
			d = c.lat.ControllerOverheadCached
		}
		osp := c.tr.Start(p.sp, "controller-overhead")
		j := c.k.AfterJob(c.jit(d), nil)
		j.OnDone(func(err error) { osp.EndErr(err) })
		return j
	})
	fxcA := p.fxc(a, "fxc-connect", c.lat.FXCConnect)
	fxcB := p.fxc(b, "fxc-connect", c.lat.FXCConnect)
	var session sim.NodeID
	if claim.session {
		session = p.warm()
	} else {
		session = p.one("ems-session", "session", c.lat.EMSSession)
	}
	elements := p.group(func(cmds []ems.Command) []ems.Command {
		cmds = p.cmd(cmds, "add-drop:"+string(a), "roadm:", a, c.lat.ROADMAddDrop)
		cmds = p.cmd(cmds, "add-drop:"+string(b), "roadm:", b, c.lat.ROADMAddDrop)
		for _, n := range path.Intermediate() {
			cmds = p.cmd(cmds, "express:"+string(n), "roadm:", n, c.lat.ROADMExpress)
		}
		for _, rg := range lp.regens {
			cmds = p.cmd(cmds, "regen:"+rg.ID, "roadm:", rg.Node, c.lat.RegenConfig)
		}
		return cmds
	})
	var laser sim.NodeID
	if d := laserTuneFor(claim, c.lat.LaserTune); d > 0 {
		laser = p.one("laser-tune", "laser", d)
	} else {
		laser = p.warm()
	}
	power := p.group(func(cmds []ems.Command) []ems.Command {
		for i := 0; i < hops; i++ {
			cmds = p.cmd(cmds, fmt.Sprintf("power-balance:%d", i), "optical", "", c.lat.PowerBalancePerHop)
		}
		return cmds
	})
	equalize := p.one("link-equalize", "optical", c.lat.LinkEqualize)
	verify := p.one("verify", "optical", c.lat.VerifyEndToEnd)

	p.edge(overhead, fxcA)
	p.edge(overhead, fxcB)
	p.edge(overhead, session)
	p.edge(session, elements)
	p.edge(session, laser)
	p.edge(elements, power)
	p.edge(laser, power)
	p.edge(power, equalize)
	p.edge(equalize, verify)
	// Verification needs light end to end: the client-side FXC mappings
	// must be in place too.
	p.edge(fxcA, verify)
	p.edge(fxcB, verify)
	return p.run()
}

// laserTuneFor scales laser-tune work by the warm-transponder claim: each
// warm end already sits on the assigned wavelength, so two warm ends need no
// tuning at all and one warm end needs half.
func laserTuneFor(claim warmClaim, full sim.Duration) sim.Duration {
	switch claim.warmEnds {
	case 0:
		return full
	case 1:
		return full / 2
	default:
		return 0
	}
}

// lightpathTeardownJob runs the EMS choreography for releasing a lightpath
// (paper §3: "around 10 seconds"). The graph choreography halves that: both
// FXC disconnects and the teardown session run concurrently after the
// controller's bookkeeping, and the per-end ROADM releases run concurrently
// (per-element lanes) once the session is up.
func (c *Controller) lightpathTeardownJob(lp *lightpath, parent obs.SpanRef) *sim.Job {
	a, b := lp.route.Path.Src(), lp.route.Path.Dst()
	p := c.newPlan(parent, "lightpath:teardown")
	ctl := p.g.Node(func() *sim.Job {
		return c.k.AfterJob(c.jit(c.lat.TeardownController), nil)
	})
	fxcA := p.fxc(a, "fxc-disconnect", c.lat.FXCDisconnect)
	fxcB := p.fxc(b, "fxc-disconnect", c.lat.FXCDisconnect)
	session := p.one("teardown-session", "session", c.lat.TeardownEMSSession)
	releases := p.group(func(cmds []ems.Command) []ems.Command {
		cmds = p.cmd(cmds, "release:"+string(a), "roadm:", a, c.lat.ROADMRelease)
		return p.cmd(cmds, "release:"+string(b), "roadm:", b, c.lat.ROADMRelease)
	})
	p.edge(ctl, fxcA)
	p.edge(ctl, fxcB)
	p.edge(ctl, session)
	p.edge(session, releases)
	return p.run()
}
