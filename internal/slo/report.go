package slo

import (
	"sort"

	"griphon/internal/sim"
)

// ConnReport is one connection's availability accounting — the row of the
// customer's SLA report.
type ConnReport struct {
	Conn        string
	Customer    string
	ActivatedAt sim.Time
	ReleasedAt  sim.Time
	Released    bool
	Degraded    bool
	// Lifetime is the observed service window: activation to release (or
	// now for live connections).
	Lifetime sim.Duration
	Downtime sim.Duration
	// Availability is (Lifetime-Downtime)/Lifetime in [0,1]; 1 for a
	// connection with no observed lifetime yet.
	Availability float64
	Outages      []Outage
}

// CustomerReport aggregates one customer's connections.
type CustomerReport struct {
	Customer string
	Now      sim.Time
	Conns    []ConnReport
	// Totals across all listed connections.
	TotalLifetime sim.Duration
	TotalDowntime sim.Duration
	Availability  float64
	OutageCount   int
	Unattributed  int
}

// Report assembles the SLA report for one customer as of now. An empty
// customer selects every non-internal connection (the operator view).
// Internal carrier connections never appear: their failures surface through
// the customer circuits riding them.
func (l *Ledger) Report(customer string, now sim.Time) CustomerReport {
	rep := CustomerReport{Customer: customer, Now: now}
	add := func(r *connRow, cl *custLedger) {
		if r.internal {
			return
		}
		cr := ConnReport{
			Conn:        r.conn,
			Customer:    cl.customer,
			ActivatedAt: r.activatedAt,
			ReleasedAt:  r.releasedAt,
			Released:    r.released,
			Degraded:    r.degraded,
			Downtime:    r.downtime(now),
			Outages:     r.outages(),
		}
		end := now
		if r.released {
			end = r.releasedAt
		}
		if end.After(r.activatedAt) {
			cr.Lifetime = end.Sub(r.activatedAt)
		}
		cr.Availability = availability(cr.Lifetime, cr.Downtime)
		rep.Conns = append(rep.Conns, cr)
		rep.TotalLifetime += cr.Lifetime
		rep.TotalDowntime += cr.Downtime
		rep.OutageCount += len(cr.Outages)
		for _, o := range cr.Outages {
			if o.Cause == CauseUnknown {
				rep.Unattributed++
			}
		}
	}
	if customer != "" {
		if cl := l.custs[customer]; cl != nil {
			rep.Conns = make([]ConnReport, 0, len(cl.rows))
			for _, r := range cl.rows {
				add(r, cl)
			}
		}
	} else {
		// The operator view interleaves every customer's rows by ID.
		type filed struct {
			row  *connRow
			cust *custLedger
		}
		all := make([]filed, 0, l.tracked)
		for _, cl := range l.custs {
			for _, r := range cl.rows {
				all = append(all, filed{r, cl})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].row.conn < all[j].row.conn })
		for _, f := range all {
			add(f.row, f.cust)
		}
	}
	rep.Availability = availability(rep.TotalLifetime, rep.TotalDowntime)
	return rep
}

// MergeReports joins the operator views of ledgers that own disjoint sets of
// customers (one per shard) into the report one ledger holding all of them
// would give: rows re-sorted by ID, totals summed, availability recomputed.
func MergeReports(now sim.Time, reps []CustomerReport) CustomerReport {
	out := CustomerReport{Now: now}
	for _, r := range reps {
		out.Conns = append(out.Conns, r.Conns...)
		out.TotalLifetime += r.TotalLifetime
		out.TotalDowntime += r.TotalDowntime
		out.OutageCount += r.OutageCount
		out.Unattributed += r.Unattributed
	}
	sort.Slice(out.Conns, func(i, j int) bool { return out.Conns[i].Conn < out.Conns[j].Conn })
	out.Availability = availability(out.TotalLifetime, out.TotalDowntime)
	return out
}

func availability(lifetime, downtime sim.Duration) float64 {
	if lifetime <= 0 {
		return 1
	}
	return float64(lifetime-downtime) / float64(lifetime)
}
