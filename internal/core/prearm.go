package core

import (
	"griphon/internal/ems"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// PreArm sizes the speculative warm pools (Config.PreArm). Pre-arming spends
// idle EMS capacity ahead of demand so the setup critical path can skip its
// slowest steps: a pre-opened EMS session removes the session-establishment
// wait, and a spare transponder already tuned to a likely wavelength removes
// (half of) the laser-tune wait per warm end. The zero value disables
// pre-arming.
type PreArm struct {
	// WarmOTsPerNode is how many spare transponders each PoP keeps
	// pre-tuned.
	WarmOTsPerNode int
	// WarmSessions is how many ROADM-EMS sessions are kept open and idle.
	WarmSessions int
}

func (p PreArm) enabled() bool { return p.WarmOTsPerNode > 0 || p.WarmSessions > 0 }

// prearmPools is the controller's soft warm-pool state. It is deliberately
// NOT journaled: warm counts are a performance hint, not a resource
// reservation (no bank OT is held by the pool), so recovery simply
// reinitializes the pools full — the worst case after a crash is one setup
// paying full price. AuditInvariants is unaffected for the same reason.
type prearmPools struct {
	cfg      PreArm
	warmOTs  map[topo.NodeID]int
	sessions int
}

// warmClaim is what one lightpath setup managed to grab from the pools.
type warmClaim struct {
	// session: an open EMS session was claimed; the choreography skips
	// session establishment.
	session bool
	// warmEnds counts terminating PoPs (0–2) that supplied a pre-tuned
	// spare transponder; each halves the laser-tune work.
	warmEnds int
}

func newPrearmPools(cfg PreArm, g *topo.Graph) *prearmPools {
	p := &prearmPools{cfg: cfg, warmOTs: make(map[topo.NodeID]int)}
	// Pools deploy warm: the carrier pre-arms during turn-up, before the
	// first request arrives.
	p.sessions = cfg.WarmSessions
	for _, n := range g.Nodes() {
		p.warmOTs[n.ID] = cfg.WarmOTsPerNode
	}
	return p
}

// claimWarm grabs whatever the pools can supply for a setup terminating at a
// and b, and immediately starts background re-arming to refill what was
// taken. With pre-arming disabled it returns the zero claim.
func (c *Controller) claimWarm(a, b topo.NodeID) warmClaim {
	if c.prearm == nil {
		return warmClaim{}
	}
	var claim warmClaim
	if c.prearm.sessions > 0 {
		c.prearm.sessions--
		claim.session = true
		c.ins.prearmClaimsSession.Inc()
		c.rearmSession()
	}
	for _, n := range [2]topo.NodeID{a, b} {
		if c.prearm.warmOTs[n] > 0 {
			c.prearm.warmOTs[n]--
			claim.warmEnds++
			c.ins.prearmClaimsOT.Inc()
			c.rearmOT(n)
		}
	}
	return claim
}

// rearmSession re-opens one EMS session in the background: a real command on
// the ROADM EMS's session lane, under the retry policy. Bounded — on retry
// exhaustion the refill is abandoned (the pool just runs one short), so
// re-arming can never keep the event loop alive indefinitely.
func (c *Controller) rearmSession() {
	sp := c.tr.Start(obs.SpanRef{}, "op:prearm")
	bud := &opBudget{}
	job := c.retrying(sp, bud, func() *sim.Job {
		return c.roadmEMS.Submit(ems.Command{
			Name: "prearm:session",
			Elem: "session",
			Dur:  c.jit(c.lat.EMSSession),
			Span: sp,
		})
	})
	job.OnDone(func(err error) {
		sp.EndErr(err)
		if err != nil {
			c.ins.prearmRearmFailed.Inc()
			return
		}
		c.ins.prearmRearmOK.Inc()
		if c.prearm.sessions < c.prearm.cfg.WarmSessions {
			c.prearm.sessions++
		}
	})
}

// rearmOT re-tunes one spare transponder at n in the background. The spare is
// a separate physical device from the in-path transponders, so it gets its
// own per-node lane and never contends with a live setup's laser-tune.
func (c *Controller) rearmOT(n topo.NodeID) {
	sp := c.tr.Start(obs.SpanRef{}, "op:prearm")
	bud := &opBudget{}
	job := c.retrying(sp, bud, func() *sim.Job {
		return c.roadmEMS.Submit(ems.Command{
			Name: "prearm:tune:" + string(n),
			Elem: "prearm:" + string(n),
			Dur:  c.jit(c.lat.LaserTune),
			Span: sp,
		})
	})
	job.OnDone(func(err error) {
		sp.EndErr(err)
		if err != nil {
			c.ins.prearmRearmFailed.Inc()
			return
		}
		c.ins.prearmRearmOK.Inc()
		if c.prearm.warmOTs[n] < c.prearm.cfg.WarmOTsPerNode {
			c.prearm.warmOTs[n]++
		}
	})
}
