package core

// Customer fault visibility (paper §2.2: the GUI promises "per-customer
// connection management + fault visibility"). The controller feeds three
// surfaces from its existing commit points:
//
//   - the SLA availability ledger (internal/slo): every beginOutage/endOutage
//     transition goes through connDown/connUp below, so the ledger's
//     attributed intervals equal Connection.Outage to the virtual nanosecond;
//   - the customer alarm stream: correlated batches are grouped (one fiber
//     cut -> one root alarm owning its per-circuit children) and appended to
//     a bounded, seq-cursored log;
//   - the flight recorder: bounded rings of recent events, commit records and
//     alarm groups, dumped to JSON when an invariant audit or the chaos soak
//     trips.

import (
	"griphon/internal/alarms"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// SLA returns the availability ledger (always non-nil).
func (c *Controller) SLA() *slo.Ledger { return c.sla }

// SLAReport assembles one customer's availability report as of now. Empty
// customer is the operator view (every non-internal connection).
func (c *Controller) SLAReport(customer string) slo.CustomerReport {
	return c.sla.Report(customer, c.k.Now())
}

// AlarmsSince returns alarm groups after the seq cursor, projected onto one
// customer's view ("" = operator). The returned next cursor resumes the
// stream with no gaps or repeats.
func (c *Controller) AlarmsSince(seq uint64, customer string) (groups []alarms.Group, next uint64) {
	for _, g := range c.alarmLog.Since(seq) {
		if v, ok := g.ForCustomer(customer); ok {
			groups = append(groups, v)
		}
	}
	return groups, c.alarmLog.NextSeq() - 1
}

// DumpFlight snapshots the flight recorder, folding audit findings (or soak
// failure lines) into the dump. ok is false when no recorder is attached.
func (c *Controller) DumpFlight(reason string, findings []string) (slo.Dump, bool) {
	if c.flight == nil {
		return slo.Dump{}, false
	}
	return c.flight.Snapshot(reason, c.k.Now(), findings), true
}

// connDown opens the connection's outage clock AND its ledger interval in one
// step, so the two accountings can never drift. The first attribution wins:
// a second hit landing mid-outage does not re-attribute it.
func (c *Controller) connDown(conn *Connection, cause slo.Cause, link topo.LinkID, detail, phase string) {
	if !conn.inOutage {
		c.sla.Down(string(conn.ID), c.k.Now(), cause, link, detail, phase)
	}
	conn.beginOutage(c.k.Now())
}

// connUp closes the outage clock and the ledger interval together.
func (c *Controller) connUp(conn *Connection, resolution string) {
	if conn.inOutage {
		c.sla.Up(string(conn.ID), c.k.Now(), resolution)
	}
	conn.endOutage(c.k.Now())
}

// slaPhase records a phase transition inside the open outage, mirroring the
// restore span children so closed phases tile the interval exactly.
func (c *Controller) slaPhase(conn *Connection, name string) {
	c.sla.Phase(string(conn.ID), c.k.Now(), name)
}

// slaBlock records a blocked restoration attempt inside the open outage.
func (c *Controller) slaBlock(conn *Connection, reason string) {
	c.sla.Block(string(conn.ID), c.k.Now(), reason)
}

// cutCause attributes a link failure: fiber cuts inside a maintenance window
// are planned work, not plant failures.
func (c *Controller) cutCause() slo.Cause {
	if c.planned {
		return slo.CauseMaintenance
	}
	return slo.CauseFiberCut
}

// recordAlarmBatch groups one correlated batch, appends the groups to the
// alarm log, counts them, and feeds the flight recorder.
func (c *Controller) recordAlarmBatch(batch []alarms.Alarm, suspects []topo.LinkID) []alarms.Group {
	for _, a := range batch {
		if ctr := c.ins.alarmsObserved[a.Type]; ctr != nil {
			ctr.Inc()
		}
	}
	groups := c.alarmLog.GroupAndAppend(c.k.Now(), batch, suspects)
	for _, g := range groups {
		if ctr := c.ins.alarmGroups[g.Kind]; ctr != nil {
			ctr.Inc()
		}
		if c.flight != nil {
			c.flight.AlarmGroup(g)
		}
		if c.onAlarmGroup != nil {
			c.onAlarmGroup(g)
		}
	}
	return groups
}

// spanTail exports the tracer's most recent spans for a flight dump.
func (c *Controller) spanTail(n int) []slo.SpanRecord {
	if c.tr == nil {
		return nil
	}
	spans := c.tr.Spans()
	if len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	out := make([]slo.SpanRecord, len(spans))
	for i, s := range spans {
		out[i] = slo.SpanRecord{Name: s.Name, Start: s.Start, End: s.End, Conn: s.Conn, Outcome: s.Outcome}
	}
	return out
}
