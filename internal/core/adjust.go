package core

import (
	"fmt"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/slo"
)

// AdjustRate changes an active connection's bandwidth in place — the paper's
// core promise: "the inter-data center communication network which was
// previously statically provisioned can now be viewed as adjustable".
//
// OTN circuits resize by adding or releasing tributary slots on their
// existing pipes (electronic, seconds, hitless). Wavelength connections
// re-tune to another wavelength rate when their transponders support it
// (brief hit while the line re-frames). Moves that cross the OTN/DWDM
// boundary (e.g. 1G -> 10G) are rejected: that is a new connection, not an
// adjustment.
func (c *Controller) AdjustRate(cust inventory.Customer, id ConnID, newRate bw.Rate) (*sim.Job, error) {
	conn := c.conns.get(id)
	if conn == nil {
		return nil, fmt.Errorf("core: unknown connection %s", id)
	}
	if err := c.ledger.Verify(cust, connKey(id)); err != nil {
		return nil, err
	}
	if conn.State != StateActive {
		return nil, fmt.Errorf("core: connection %s is %v; adjust needs an active connection", id, conn.State)
	}
	if newRate == conn.Rate {
		return c.k.CompletedJob(nil), nil
	}
	parts, err := PlaceRate(newRate)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		return nil, fmt.Errorf("core: %v needs a composite service; adjust cannot split a connection", newRate)
	}
	if layerFor(newRate) != conn.Layer {
		return nil, fmt.Errorf("core: %v -> %v crosses the %v/%v boundary; tear down and reconnect",
			conn.Rate, newRate, conn.Layer, layerFor(newRate))
	}

	// Admission deltas: access pipes and quota, atomically.
	txn := inventory.NewTxn()
	defer txn.Rollback()
	delta := newRate - conn.Rate
	if delta > 0 {
		siteA, siteB := c.g.Site(conn.From), c.g.Site(conn.To)
		if err := txn.Do(
			func() error { return c.reserveAccess(siteA, siteB, delta) },
			func() { c.releaseAccess(conn.From, conn.To, delta) },
		); err != nil {
			return nil, err
		}
		if err := txn.Do(
			func() error { return c.ledger.Resize(cust, delta) },
			func() { c.ledger.Resize(cust, -delta) }, //lint:allow errcheck rollback
		); err != nil {
			return nil, err
		}
	}

	adjSp := c.tr.Start(obs.SpanRef{}, "op:adjust")
	adjSp.SetConn(string(conn.ID), string(conn.Customer), conn.Layer.String())
	var job *sim.Job
	switch conn.Layer {
	case LayerOTN:
		job, err = c.adjustCircuit(txn, conn, newRate, adjSp)
	case LayerDWDM:
		job, err = c.adjustWavelength(conn, newRate, adjSp)
	}
	if err != nil {
		adjSp.EndErr(err)
		return nil, err
	}
	job.OnDone(func(err error) { adjSp.EndErr(err) })
	c.ins.adjusts.Inc()

	conn.settleUsage(c.k.Now()) // bill the old rate up to this instant
	oldRate := conn.Rate
	if delta < 0 {
		// Shrinks cannot fail admission; settle the books directly.
		c.releaseAccess(conn.From, conn.To, -delta)
		c.ledger.Resize(cust, delta) //lint:allow errcheck symmetric
	}
	conn.Rate = newRate
	txn.Commit()
	c.log(conn, "adjust", "rate %v -> %v", oldRate, newRate)
	c.journalCommit(commitSet{reason: "adjust", conns: []*Connection{conn}})
	return job, nil
}

// adjustCircuit resizes an OTN circuit on its existing pipes.
func (c *Controller) adjustCircuit(txn *inventory.Txn, conn *Connection, newRate bw.Rate, parent obs.SpanRef) (*sim.Job, error) {
	newSlots, err := otn.SlotsFor(newRate)
	if err != nil {
		return nil, err
	}
	delta := newSlots - conn.slots
	owner := string(conn.ID)
	switch {
	case delta > 0:
		for _, p := range conn.pipes {
			p := p
			if err := txn.Do(
				func() error { _, err := p.Reserve(owner, delta); return err },
				func() { p.ReleaseSlots(owner, delta) }, //lint:allow errcheck rollback
			); err != nil {
				return nil, fmt.Errorf("core: cannot grow %s on pipe %s: %w", conn.ID, p.ID(), err)
			}
		}
	case delta < 0:
		for _, p := range conn.pipes {
			p := p
			if err := txn.Do(
				func() error { return p.ReleaseSlots(owner, -delta) },
				func() { p.Reserve(owner, -delta) }, //lint:allow errcheck rollback
			); err != nil {
				return nil, err
			}
		}
	}
	conn.slots = newSlots
	// Resize the shared-mesh backup to match; if the backup cannot grow,
	// drop it (the circuit continues unprotected rather than fail the
	// adjustment, and the event log says so).
	if len(conn.backup) > 0 {
		owner := string(conn.ID)
		for _, p := range conn.backup {
			p.ReleaseShared(owner) //lint:allow errcheck re-registering below
		}
		if err := otn.ReserveSharedPath(conn.backup, owner, newSlots); err != nil {
			c.log(conn, "no-backup", "shared-mesh backup lost on resize: %v", err)
			conn.backup = nil
		}
	}
	// Reprogram the switches (hitless: make-before-break inside the
	// switch fabric).
	return c.otnEMS.SubmitBatch(c.circuitProgramCmds(len(conn.pipes)+1, parent)), nil
}

// adjustWavelength re-tunes a wavelength connection to a different line rate
// on its existing transponders and path.
func (c *Controller) adjustWavelength(conn *Connection, newRate bw.Rate, parent obs.SpanRef) (*sim.Job, error) {
	lp := conn.working()
	for _, ot := range lp.ots {
		if ot != nil && ot.MaxRate < newRate {
			return nil, fmt.Errorf("core: transponder %s tops out at %v; %v needs a new connection", ot.ID, ot.MaxRate, newRate)
		}
	}
	if conn.protect != nil {
		for _, ot := range conn.protect.ots {
			if ot != nil && ot.MaxRate < newRate {
				return nil, fmt.Errorf("core: protect transponder %s tops out at %v", ot.ID, ot.MaxRate)
			}
		}
	}
	// The new rate's optical reach must still cover every transparent
	// segment of the existing path (higher rates reach less far).
	reach := c.plant.ReachFor(newRate)
	for _, seg := range lp.route.Plan.Segments {
		if seg.KM > reach {
			return nil, fmt.Errorf("core: %v reach (%.0f km) cannot cover the %.0f km transparent segment; re-provision instead", newRate, reach, seg.KM)
		}
	}
	// Re-framing the line briefly interrupts traffic.
	return c.retune(conn, slo.CauseAdjust, "rate re-frame hit", "adjust-done", "rate-retune", parent), nil
}
