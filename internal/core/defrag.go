package core

import (
	"griphon/internal/ems"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/slo"
)

// DefragmentSpectrum re-tunes active wavelengths down to the lowest channels
// free on their own paths. Months of connection churn leave the spectrum
// fragmented — high channels busy, low channels free in non-aligned patterns
// — which blocks future first-fit assignments; periodic defragmentation is
// standard carrier practice and a natural companion to the paper's §4
// re-grooming. Each move is a retune on the same path (no bridge needed):
// reserve the lower channel, reprogram the ROADMs, brief re-tune hit, release
// the old channel. It returns a job completing when all retunes finish and
// the number of connections moved.
func (c *Controller) DefragmentSpectrum() (*sim.Job, int) {
	sp := c.tr.Start(obs.SpanRef{}, "op:defrag")
	var jobs []*sim.Job
	var movedConns []*Connection
	moved := 0
	for _, conn := range c.liveConns() {
		if conn.Layer != LayerDWDM || conn.State != StateActive {
			continue
		}
		if c.retuneDown(conn) {
			moved++
			c.ins.retunes.Inc()
			movedConns = append(movedConns, conn)
			jobs = append(jobs, c.retune(conn, slo.CauseDefrag, "defrag retune hit", "retune-done", "defrag-retune:"+string(conn.ID), sp))
		}
	}
	if moved > 0 {
		// The channel moves are synchronous; one commit covers the sweep.
		c.journalCommit(commitSet{reason: "defrag", conns: movedConns})
	}
	job := sim.All(c.k, jobs...)
	job.OnDone(func(err error) { sp.EndErr(err) })
	return job, moved
}

// retuneDown moves every segment of conn's working lightpath to the lowest
// common free channel below its current one. It mutates resource state
// synchronously and reports whether anything moved.
func (c *Controller) retuneDown(conn *Connection) bool {
	lp := conn.working()
	if lp == nil {
		return false
	}
	movedAny := false
	for i, seg := range lp.route.Plan.Segments {
		cur := lp.route.Channels[i]
		free := c.plant.ContinuityChannels(seg.Links)
		if len(free) == 0 || free[0] >= cur {
			continue
		}
		target := free[0]
		// Reserve the new channel on every link of the segment, each link a
		// transaction step so a partial grab rolls back in LIFO order.
		txn := inventory.NewTxn()
		ok := true
		for _, link := range seg.Links {
			if err := txn.Do(
				func() error { return c.plant.Spectrum(link).Reserve(target, string(conn.ID)) },
				func() { c.plant.Spectrum(link).Release(target) }, //lint:allow errcheck undoing our own reserve
			); err != nil {
				txn.Rollback()
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Re-point the ROADM layer at the new channel.
		owner := lp.segOwners[i]
		nodes := lp.segNodes[i]
		c.roadms.ReleaseSegment(nodes, owner)
		if err := c.roadms.ConfigureSegment(nodes, seg.Links, target, owner); err != nil {
			// Restore the old configuration (ports were just freed,
			// so this cannot fail) and let the txn drop the new spectrum.
			c.roadms.ConfigureSegment(nodes, seg.Links, cur, owner) //lint:allow errcheck restoring freed state
			txn.Rollback()
			continue
		}
		txn.Commit()
		// Release the old channel.
		for _, link := range seg.Links {
			c.plant.Spectrum(link).Release(cur) //lint:allow errcheck owned
		}
		c.log(conn, "retune", "segment %d channel %d -> %d", i, cur, target)
		lp.route.Channels[i] = target
		movedAny = true
	}
	return movedAny
}

// retune re-tunes a live wavelength: a brief traffic hit of cause, then the
// re-tune, a command named name, and an end-to-end verify as one ROADM batch.
// detail and resolution label the SLA outage the hit opens and closes.
func (c *Controller) retune(conn *Connection, cause slo.Cause, detail, resolution, name string, parent obs.SpanRef) *sim.Job {
	hit := c.jit(c.lat.ProtectionSwitch)
	c.connDown(conn, cause, "", detail, "hit")
	out := c.k.NewJob()
	c.k.After(hit, func() {
		c.connUp(conn, resolution)
		c.roadmEMS.SubmitBatch([]ems.Command{
			{Name: name, Dur: c.jit(c.lat.LaserTune), Span: parent},
			{Name: "verify", Dur: c.jit(c.lat.VerifyEndToEnd), Span: parent},
		}).OnDone(out.Complete)
	})
	return out
}

// MaxChannelInUse returns the highest occupied channel across the plant (0
// when the spectrum is empty) — the defragmentation experiment's metric.
func (c *Controller) MaxChannelInUse() int {
	max := 0
	for _, l := range c.g.Links() {
		used := c.plant.Spectrum(l.ID).UsedChannels()
		if len(used) > 0 && int(used[len(used)-1]) > max {
			max = int(used[len(used)-1])
		}
	}
	return max
}
