// Package slo is the customer-facing fault-visibility and SLA layer (paper
// §2.2: the customer GUI promises "per-customer connection management + fault
// visibility"). It keeps a per-connection availability ledger in virtual
// time: up/down intervals opened and closed at the controller's commit
// points, every outage attributed to a root cause (a fiber cut on a named
// link, a maintenance window, a planned roll/adjust/defrag hit) and tiled
// into phases (detect / localize / provision) that mirror the PR 2 span
// timeline exactly. The chaos soak closes the loop: the ledger's attributed
// intervals must byte-match the controller's own outage accounting and anchor
// to the injected failure instants — zero unattributed downtime.
package slo

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Cause classifies the root cause of one outage interval.
type Cause int

const (
	// CauseUnknown is the attribution the chaos soak must never see.
	CauseUnknown Cause = iota
	// CauseFiberCut is an unplanned fiber cut on a named link.
	CauseFiberCut
	// CauseMaintenance is a planned maintenance window taking the link down
	// (connections that could not be rolled off ride through the hit).
	CauseMaintenance
	// CauseRoll is the brief traffic hit of a bridge-and-roll (maintenance
	// rolls and customer-requested moves).
	CauseRoll
	// CauseAdjust is the re-framing hit of an in-place rate adjustment.
	CauseAdjust
	// CauseDefrag is the retune hit of a spectrum-defragmentation sweep.
	CauseDefrag
	// CauseEMSFault is an outage caused or held open by vendor EMS failures
	// rather than the photonic plant.
	CauseEMSFault
	// CauseRecovery marks an outage clock restarted at crash recovery: the
	// journal deliberately excludes outage clocks, so downtime that straddles
	// a controller restart is re-attributed to the recovery instant.
	CauseRecovery
)

func (c Cause) String() string {
	switch c {
	case CauseUnknown:
		return "unknown"
	case CauseFiberCut:
		return "fiber-cut"
	case CauseMaintenance:
		return "maintenance"
	case CauseRoll:
		return "roll"
	case CauseAdjust:
		return "rate-adjust"
	case CauseDefrag:
		return "defrag-retune"
	case CauseEMSFault:
		return "ems-fault"
	case CauseRecovery:
		return "recovery"
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// causes lists every attributable cause, for per-cause instrument creation.
var causes = []Cause{CauseUnknown, CauseFiberCut, CauseMaintenance, CauseRoll,
	CauseAdjust, CauseDefrag, CauseEMSFault, CauseRecovery}

// Phase is one sub-interval of an outage: the ledger mirrors the controller's
// restoration phase transitions (detect → localize → provision), so closed
// phases tile the outage exactly, to the virtual nanosecond.
type Phase struct {
	Name  string
	Start sim.Time
	End   sim.Time
	Open  bool
}

// Duration returns the phase extent (zero while open).
func (p Phase) Duration() sim.Duration {
	if p.Open {
		return 0
	}
	return p.End.Sub(p.Start)
}

// Block records one blocked restoration attempt inside an outage — the
// "why is my circuit still down" answer (EMS failure, no alternate path, a
// backup pipe that was itself dead).
type Block struct {
	At     sim.Time
	Reason string
}

// Outage is one down interval of one connection.
type Outage struct {
	Conn     string
	Customer string
	Start    sim.Time
	End      sim.Time
	Open     bool
	Cause    Cause
	// Link names the failed fiber for fiber-cut and maintenance causes.
	Link   topo.LinkID
	Detail string
	// Resolution says how the outage ended: "restored", "protect-switch",
	// "revived" (fiber repaired), "mesh-restored", "released", "roll-done"...
	Resolution string
	Phases     []Phase
	Blocks     []Block
}

// Duration returns the interval extent; open intervals extend to now.
func (o Outage) Duration(now sim.Time) sim.Duration {
	if o.Open {
		return now.Sub(o.Start)
	}
	return o.End.Sub(o.Start)
}

func (o Outage) String() string {
	end := "open"
	if !o.Open {
		end = o.End.String()
	}
	return fmt.Sprintf("%s [%v..%s] %s link=%s res=%s", o.Conn, o.Start, end, o.Cause, o.Link, o.Resolution)
}

// connRow is one connection's availability record, sized to be kept for
// ever: most connections never see an outage, so the outage history hangs off
// a pointer that stays nil for them.
type connRow struct {
	conn        string
	activatedAt sim.Time
	releasedAt  sim.Time
	hist        *outageHist
	released    bool
	degraded    bool
	internal    bool
}

// outageHist is the outage history of a connection that has had one.
type outageHist struct {
	outages []*Outage
	open    *Outage // also the last element of outages while open
}

// open returns the open outage interval, if any; a nil row has none.
func (r *connRow) open() *Outage {
	if r == nil || r.hist == nil {
		return nil
	}
	return r.hist.open
}

// custLedger is one customer's rows in connection-ID order. Rows are inserted
// once and never removed, so a customer's report reads its own rows in order
// and nothing else.
type custLedger struct {
	customer string
	rows     []*connRow
}

// find returns the position of conn in rows (or where it would go).
func (cl *custLedger) find(conn string) (int, bool) {
	return slices.BinarySearchFunc(cl.rows, conn, func(r *connRow, id string) int {
		return strings.Compare(r.conn, id)
	})
}

// liveConn is a connection that has not been released, with its owner.
type liveConn struct {
	row  *connRow
	cust *custLedger
}

// Ledger is the per-connection availability ledger. Like the controller it
// serves, it lives on the single simulation thread; all timestamps are
// virtual. The zero value is NOT usable — call New.
//
// Released connections are history and are reached through their customer;
// only the connections still in service, the ones Down/Phase/Up address by
// ID, sit in the live map.
type Ledger struct {
	live  map[string]liveConn
	custs map[string]*custLedger

	// Gauge values, kept as counts at the transitions that change them so a
	// scrape does not walk the history.
	tracked      int
	openOutages  int
	degradedLive int

	// Instruments (nil registry ⇒ all remain nil and updates are skipped).
	outagesTotal  map[Cause]*obs.Counter
	downtimeTotal map[Cause]*obs.Counter
	outageSecs    *obs.Histogram
	phaseSecs     map[string]*obs.Histogram
	phaseSecsAny  func(name string) *obs.Histogram
	unattributed  *obs.Counter
	blocksTotal   *obs.Counter
}

// phaseNames are the known outage phases, pre-registered so scrapes see the
// whole family even before the first outage.
var phaseNames = []string{"detect", "localize", "provision", "switch", "activate", "repair-wait", "hit"}

// New returns an empty ledger, registering its instruments in reg (nil skips
// instrumentation).
func New(reg *obs.Registry) *Ledger {
	l := &Ledger{live: map[string]liveConn{}, custs: map[string]*custLedger{}}
	if reg == nil {
		return l
	}
	l.outagesTotal = map[Cause]*obs.Counter{}
	l.downtimeTotal = map[Cause]*obs.Counter{}
	for _, c := range causes {
		l.outagesTotal[c] = reg.Counter("griphon_sla_outages_total",
			"Ledger outage intervals closed, by attributed root cause.", "cause", c.String())
		l.downtimeTotal[c] = reg.Counter("griphon_sla_downtime_seconds_total",
			"Cumulative attributed downtime in virtual seconds, by root cause.", "cause", c.String())
	}
	l.outageSecs = reg.Histogram("griphon_sla_outage_seconds",
		"Per-outage duration in virtual seconds.", nil)
	l.phaseSecs = map[string]*obs.Histogram{}
	for _, name := range phaseNames {
		l.phaseSecs[name] = reg.Histogram("griphon_sla_phase_seconds",
			"Outage phase durations in virtual seconds (phases tile each outage).", nil, "phase", name)
	}
	l.phaseSecsAny = func(name string) *obs.Histogram {
		h, ok := l.phaseSecs[name]
		if !ok {
			h = reg.Histogram("griphon_sla_phase_seconds",
				"Outage phase durations in virtual seconds (phases tile each outage).", nil, "phase", name)
			l.phaseSecs[name] = h
		}
		return h
	}
	l.unattributed = reg.Counter("griphon_sla_unattributed_total",
		"Outage intervals closed without a root cause — must stay zero.")
	l.blocksTotal = reg.Counter("griphon_sla_restore_blocks_total",
		"Blocked restoration attempts recorded inside outages.")
	reg.GaugeFunc("griphon_sla_open_outages",
		"Outage intervals currently open in the ledger.",
		func() float64 { return float64(l.openOutages) })
	reg.GaugeFunc("griphon_sla_tracked_connections",
		"Connections the availability ledger is tracking (released included).",
		func() float64 { return float64(l.tracked) })
	reg.GaugeFunc("griphon_sla_degraded_connections",
		"Live connections delivered degraded (groomed-OTN fallback).",
		func() float64 { return float64(l.degradedLive) })
	return l
}

// Activate registers a connection entering service, filing its row under
// customer (a released connection activated again takes its old row back).
// Degraded marks a request delivered as a groomed-OTN fallback; internal marks
// carrier-owned connections excluded from customer reports.
func (l *Ledger) Activate(conn, customer string, at sim.Time, degraded, internal bool) {
	lc, wasLive := l.live[conn]
	if !wasLive {
		cl := l.custs[customer]
		if cl == nil {
			cl = &custLedger{customer: customer}
			l.custs[customer] = cl
		}
		i, ok := cl.find(conn)
		if !ok {
			cl.rows = slices.Insert(cl.rows, i, &connRow{conn: conn})
			l.tracked++
		}
		lc = liveConn{row: cl.rows[i], cust: cl}
		lc.row.released = false
		l.live[conn] = lc
	}
	r := lc.row
	if wasLive && r.degraded {
		l.degradedLive--
	}
	if degraded {
		l.degradedLive++
	}
	r.activatedAt = at
	r.degraded = degraded
	r.internal = internal
}

// Down opens an outage interval attributed to cause. A second Down while one
// is open is a no-op (mirrors the controller's inOutage guard); the first
// attribution wins because it is the root cause. phase names the opening
// phase ("detect", "switch", "repair-wait", "hit"). Like Phase, Block and Up
// it addresses a connection in service; any other ID is ignored.
func (l *Ledger) Down(conn string, at sim.Time, cause Cause, link topo.LinkID, detail, phase string) {
	lc, ok := l.live[conn]
	if !ok || lc.row.open() != nil {
		return
	}
	r := lc.row
	o := &Outage{
		Conn:     conn,
		Customer: lc.cust.customer,
		Start:    at,
		Open:     true,
		Cause:    cause,
		Link:     link,
		Detail:   detail,
	}
	if phase != "" {
		o.Phases = append(o.Phases, Phase{Name: phase, Start: at, Open: true})
	}
	if r.hist == nil {
		r.hist = &outageHist{}
	}
	r.hist.outages = append(r.hist.outages, o)
	r.hist.open = o
	l.openOutages++
}

// Phase closes the open phase and opens a new one at the same instant —
// called at exactly the controller's phase-span transitions, so closed phases
// tile the outage with no gaps.
func (l *Ledger) Phase(conn string, at sim.Time, name string) {
	o := l.live[conn].row.open()
	if o == nil {
		return
	}
	l.closePhase(o, at)
	o.Phases = append(o.Phases, Phase{Name: name, Start: at, Open: true})
}

func (l *Ledger) closePhase(o *Outage, at sim.Time) {
	if n := len(o.Phases); n > 0 && o.Phases[n-1].Open {
		p := &o.Phases[n-1]
		p.End = at
		p.Open = false
		if l.phaseSecsAny != nil {
			l.phaseSecsAny(p.Name).Observe(p.Duration().Seconds())
		}
	}
}

// Block records a blocked restoration attempt inside the open outage.
func (l *Ledger) Block(conn string, at sim.Time, reason string) {
	o := l.live[conn].row.open()
	if o == nil {
		return
	}
	o.Blocks = append(o.Blocks, Block{At: at, Reason: reason})
	if l.blocksTotal != nil {
		l.blocksTotal.Inc()
	}
}

// Up closes the open outage interval with the given resolution. A no-op when
// no interval is open.
func (l *Ledger) Up(conn string, at sim.Time, resolution string) {
	r := l.live[conn].row
	o := r.open()
	if o == nil {
		return
	}
	l.closePhase(o, at)
	o.End = at
	o.Open = false
	o.Resolution = resolution
	r.hist.open = nil
	l.openOutages--
	if l.outagesTotal != nil {
		l.outagesTotal[o.Cause].Inc()
		l.downtimeTotal[o.Cause].Add(o.End.Sub(o.Start).Seconds())
		l.outageSecs.Observe(o.End.Sub(o.Start).Seconds())
		if o.Cause == CauseUnknown {
			l.unattributed.Inc()
		}
	}
}

// Release retires a connection: any open outage closes as "released", the
// lifetime clock stops, and the row leaves the live map for its customer's
// history.
func (l *Ledger) Release(conn string, at sim.Time) {
	lc, ok := l.live[conn]
	if !ok {
		return
	}
	l.Up(conn, at, "released")
	lc.row.released = true
	lc.row.releasedAt = at
	if lc.row.degraded {
		l.degradedLive--
	}
	delete(l.live, conn)
}

// row finds a connection's row: in the live map, or else in some customer's
// history.
func (l *Ledger) row(conn string) *connRow {
	if lc, ok := l.live[conn]; ok {
		return lc.row
	}
	for _, cl := range l.custs {
		if i, ok := cl.find(conn); ok {
			return cl.rows[i]
		}
	}
	return nil
}

// Outages returns copies of a connection's outage intervals, oldest first.
func (l *Ledger) Outages(conn string) []Outage {
	r := l.row(conn)
	if r == nil {
		return nil
	}
	return r.outages()
}

func (r *connRow) outages() []Outage {
	if r.hist == nil {
		return []Outage{}
	}
	out := make([]Outage, len(r.hist.outages))
	for i, o := range r.hist.outages {
		out[i] = *o
		out[i].Phases = append([]Phase(nil), o.Phases...)
		out[i].Blocks = append([]Block(nil), o.Blocks...)
	}
	return out
}

// Downtime returns a connection's cumulative ledger downtime as of now, the
// still-open interval included. By construction it must equal the
// controller's own Connection.Outage accounting to the nanosecond — the
// chaos soak asserts exactly that.
func (l *Ledger) Downtime(conn string, now sim.Time) sim.Duration {
	r := l.row(conn)
	if r == nil {
		return 0
	}
	return r.downtime(now)
}

func (r *connRow) downtime(now sim.Time) sim.Duration {
	if r.hist == nil {
		return 0
	}
	var total sim.Duration
	for _, o := range r.hist.outages {
		total += o.Duration(now)
	}
	return total
}

// Conns returns every tracked connection ID, sorted.
func (l *Ledger) Conns() []string {
	out := make([]string, 0, l.tracked)
	for _, cl := range l.custs {
		for _, r := range cl.rows {
			out = append(out, r.conn)
		}
	}
	sort.Strings(out)
	return out
}

// openOutageList returns copies of the open outage intervals, by connection ID.
func (l *Ledger) openOutageList() []Outage {
	var out []Outage
	for _, lc := range l.live {
		if o := lc.row.open(); o != nil {
			out = append(out, *o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Conn < out[j].Conn })
	return out
}
