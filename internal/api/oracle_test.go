package api

// The oracle the response appenders (respond.go) are held to: the
// conversions the handlers ran before encoding/json marshalled their answers,
// kept here verbatim, and the fuzz test that compares the two byte for byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"griphon"
	"griphon/internal/alarms"
	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/inventory"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// FromConnection converts a controller record; now is the current virtual
// time (for still-open outages) and g the topology (for propagation delay;
// nil skips it).
func FromConnection(c *core.Connection, now sim.Time, g *topo.Graph) ConnectionJSON {
	j := ConnectionJSON{
		ID:           string(c.ID),
		Customer:     string(c.Customer),
		From:         string(c.From),
		To:           string(c.To),
		Rate:         c.Rate.String(),
		Layer:        c.Layer.String(),
		Protection:   c.Protect.String(),
		State:        c.State.String(),
		Restorations: c.Restorations,
		Rolls:        c.Rolls,
	}
	if r := c.Route(); len(r.Nodes) > 0 {
		j.Route = r.String()
		if g != nil {
			j.PropagationMS = rwa.PropagationDelay(g, r) * 1000
		}
	}
	if st := c.SetupTime(); st > 0 {
		j.SetupTime = st.String()
		j.SetupSeconds = st.Seconds()
	}
	if outage := c.Outage(now); outage > 0 {
		j.TotalOutage = outage.String()
		j.OutageNanos = outage
	}
	return j
}

func fromAlarm(a alarms.Alarm) AlarmJSON {
	return AlarmJSON{
		At: a.At.String(), Node: string(a.Node), Conn: a.Conn,
		Customer: a.Customer, Type: a.Type.String(), Detail: a.Detail,
	}
}

// FromGroup converts a correlated alarm group for the wire.
func FromGroup(g alarms.Group) AlarmGroupJSON {
	out := AlarmGroupJSON{
		Seq: g.Seq, At: g.At.String(), Kind: g.Kind.String(),
		Link: string(g.Link), Root: fromAlarm(g.Root),
	}
	for _, a := range g.Children {
		out.Children = append(out.Children, fromAlarm(a))
	}
	return out
}

// FromSLAReport converts a ledger report for the wire.
func FromSLAReport(rep slo.CustomerReport) SLAJSON {
	out := SLAJSON{
		Customer:     rep.Customer,
		Now:          rep.Now.String(),
		LifetimeS:    rep.TotalLifetime.Seconds(),
		DowntimeS:    rep.TotalDowntime.Seconds(),
		Availability: rep.Availability,
		Outages:      rep.OutageCount,
		Unattributed: rep.Unattributed,
	}
	for _, cr := range rep.Conns {
		cj := SLAConnJSON{
			ID:           cr.Conn,
			Customer:     cr.Customer,
			Activated:    cr.ActivatedAt.String(),
			Degraded:     cr.Degraded,
			LifetimeS:    cr.Lifetime.Seconds(),
			DowntimeS:    cr.Downtime.Seconds(),
			Availability: cr.Availability,
		}
		if cr.Released {
			cj.Released = cr.ReleasedAt.String()
		}
		for _, o := range cr.Outages {
			oj := SLAOutageJSON{
				Start:      o.Start.String(),
				Open:       o.Open,
				Seconds:    o.Duration(rep.Now).Seconds(),
				Cause:      o.Cause.String(),
				Link:       string(o.Link),
				Detail:     o.Detail,
				Resolution: o.Resolution,
			}
			if !o.Open {
				oj.End = o.End.String()
			}
			for _, p := range o.Phases {
				pj := SLAPhaseJSON{Name: p.Name, Start: p.Start.String(), Open: p.Open}
				if !p.Open {
					pj.Seconds = p.Duration().Seconds()
				} else {
					pj.Seconds = rep.Now.Sub(p.Start).Seconds()
				}
				oj.Phases = append(oj.Phases, pj)
			}
			for _, b := range o.Blocks {
				oj.Blocks = append(oj.Blocks, SLABlockJSON{At: b.At.String(), Reason: b.Reason})
			}
			cj.Outages = append(cj.Outages, oj)
		}
		out.Conns = append(out.Conns, cj)
	}
	return out
}

func fromEvent(e core.Event) EventJSON {
	return EventJSON{At: e.At.String(), Conn: string(e.Conn), Kind: e.Kind, Text: e.Text}
}

func fromStats(now time.Duration, st core.Stats) StatsJSON {
	out := StatsJSON{
		Now:           now.String(),
		Active:        st.Active,
		Pending:       st.Pending,
		Down:          st.Down,
		Restoring:     st.Restoring,
		Released:      st.Released,
		InternalConns: st.InternalConns,
		ChannelsInUse: st.ChannelsInUse,
		OTsInUse:      st.OTsInUse,
		OTsTotal:      st.OTsTotal,
		Pipes:         st.Pipes,
		SlotsInUse:    st.SlotsInUse,
		SlotsTotal:    st.SlotsTotal,
	}
	for _, l := range st.DownLinks {
		out.DownLinks = append(out.DownLinks, string(l))
	}
	return out
}

func fromShards(set *core.ShardSet) ShardsResponse {
	out := ShardsResponse{Shards: set.Len()}
	for i := 0; i < set.Len(); i++ {
		st := set.Shard(i).Ctrl.Snapshot()
		out.PerShard = append(out.PerShard, ShardJSON{
			Index:         i,
			Active:        st.Active,
			Pending:       st.Pending,
			Down:          st.Down,
			ChannelsInUse: st.ChannelsInUse,
			Pipes:         st.Pipes,
		})
	}
	return out
}

func fromMaintenance(m *core.Maintenance) MaintenanceJSON {
	out := MaintenanceJSON{Link: string(m.Link), Finished: m.Finished}
	for _, id := range m.Rolled {
		out.Rolled = append(out.Rolled, string(id))
	}
	for _, id := range m.Unmoved {
		out.Unmoved = append(out.Unmoved, string(id))
	}
	return out
}

func fromTopology(g *topo.Graph) TopologyJSON {
	out := TopologyJSON{}
	for _, n := range g.Nodes() {
		out.PoPs = append(out.PoPs, string(n.ID))
	}
	for _, l := range g.Links() {
		out.Fibers = append(out.Fibers, fmt.Sprintf("%s (%.0f km)", l.ID, l.KM))
	}
	for _, site := range g.Sites() {
		out.Sites = append(out.Sites, fmt.Sprintf("%s @ %s (%.0fG access)", site.ID, site.Home, site.AccessGbps))
	}
	return out
}

// sameAsOracle requires what body appends to be encoding/json's bytes for
// the oracle value v, or, where encoding/json refuses v, the same refusal.
func sameAsOracle(t *testing.T, what string, body func([]byte) []byte, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := appendBody(nil, body)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: encoding/json refuses with %v, the appender with %v", what, wantErr, err)
		}
	case err != nil || !bytes.Equal(got, want):
		t.Errorf("%s: appender and encoding/json differ (%v):\nappend: %s\njson:   %s", what, err, got, want)
	}
}

// oddNames holds everything encoding/json escapes: the HTML-sensitive
// characters, a quote and a backslash, U+2028 and U+2029, control bytes and
// invalid UTF-8.
var oddNames = []string{"I<&>", `II"\`, "III\xe2\x80\xa8\xe2\x80\xa9", "IV\x01\t\xff"}

// responseFixture is a network over a topology whose names all need
// escaping, with a wavelength, a groomed circuit, a released connection, a
// fiber cut and its repair behind it: routes, outages, restorations, alarm
// groups and SLA rows with phases and blocks to fuzz around.
type responseFixture struct {
	net    *griphon.Network
	conns  []*core.Connection
	report slo.CustomerReport
	groups []alarms.Group
	evs    []core.Event
}

var (
	fixtureOnce sync.Once
	fixture     responseFixture
	fixtureErr  error
)

func loadResponseFixture(tb testing.TB) *responseFixture {
	tb.Helper()
	fixtureOnce.Do(func() { fixtureErr = buildResponseFixture(&fixture) })
	if fixtureErr != nil {
		tb.Fatal(fixtureErr)
	}
	return &fixture
}

func buildResponseFixture(fx *responseFixture) error {
	t := griphon.NewTopology()
	for _, p := range oddNames {
		if err := t.AddPoP(p, true); err != nil {
			return err
		}
	}
	for i := range oddNames {
		a, b := oddNames[i], oddNames[(i+1)%len(oddNames)]
		if err := t.AddFiber(a+"-"+b, a, b, float64(150+90*i)); err != nil {
			return err
		}
	}
	if err := t.AddFiber("x-"+oddNames[0]+oddNames[2], oddNames[0], oddNames[2], 333.3); err != nil {
		return err
	}
	sites := []string{"DC-A<b>", "DC-\"B\"", "DC-C\xe2\x80\xa8"}
	for i, s := range sites {
		if err := t.AddSite(s, oddNames[i], 100); err != nil {
			return err
		}
	}
	net, err := griphon.New(t, griphon.WithSeed(3))
	if err != nil {
		return err
	}
	const cust = "a&c<m>e"
	wave, err := net.Connect(cust, sites[0], sites[2], griphon.Rate10G)
	if err != nil {
		return err
	}
	if _, err := net.Connect(cust, sites[0], sites[1], griphon.Rate1G); err != nil {
		return err
	}
	gone, err := net.Connect(cust, sites[1], sites[2], griphon.Rate10G)
	if err != nil {
		return err
	}
	net.Advance(time.Hour)
	if err := net.Disconnect(cust, gone.ID); err != nil {
		return err
	}
	links := wave.Route().Links
	if err := net.CutFiber(string(links[0])); err != nil {
		return err
	}
	net.Advance(10 * time.Minute)
	if err := net.RepairFiber(string(links[0])); err != nil {
		return err
	}
	net.Advance(time.Hour)
	if err := net.CutFiber(string(links[0])); err != nil { // left open
		return err
	}
	net.Advance(time.Millisecond)
	fx.net, fx.conns, fx.report, fx.evs = net, net.Connections(cust), net.SLA(cust), net.Events()
	fx.groups, _ = net.Alarms(0, "")
	if len(fx.conns) != 3 || len(fx.groups) == 0 || len(fx.report.Conns) == 0 {
		return fmt.Errorf("fixture: %d connections, %d alarm groups, %d SLA rows", len(fx.conns), len(fx.groups), len(fx.report.Conns))
	}
	return nil
}

// responseSeed is one fuzz input: s is every string, d every duration and
// time, n every count and rate, x every float, and the bits of shape choose
// between nil, empty and filled lists and the booleans.
type responseSeed struct {
	s     string
	d, n  int64
	x     float64
	shape uint16
}

var responseSeeds = []responseSeed{
	{s: "ac\"me\\ <&>\xe2\x80\xa8\xe2\x80\xa9\x01\b\f\n\r\t\x7f \xff\xc3 Ωmega", d: -1, n: -1, x: 1e-7, shape: 0xffff},
	{s: "", d: 0, n: 0, x: 0, shape: 0},
	{s: "C0001", d: 999, n: 1e9, x: 1e-6, shape: 0x5555},
	{s: "tenant-007", d: 1500, n: 2.5e9, x: 1e21, shape: 0xaaaa},
	{s: "x", d: 61*int64(time.Hour) + 1, n: 622e6, x: 9.99e20, shape: 0x7fff},
	{s: "y", d: math.MinInt64, n: math.MaxInt64, x: -42.5, shape: 0x4b0f},
	{s: "z", d: math.MaxInt64, n: 1234, x: math.NaN(), shape: 0x1234},
	{s: "w", d: 1_500_000, n: 40e9, x: math.Inf(-1), shape: 0x0f0f},
}

func FuzzResponseEncoding(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add(s.s, s.d, s.n, s.x, s.shape)
	}
	f.Fuzz(func(t *testing.T, s string, d, n int64, x float64, shape uint16) {
		checkResponses(t, loadResponseFixture(t), s, d, n, x, shape)
	})
}

// checkResponses holds every response appender to its oracle on the
// fixture's state, overwritten field by field from the fuzz input.
func checkResponses(t *testing.T, fx *responseFixture, s string, d, n int64, x float64, shape uint16) {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	dur := time.Duration(d)
	if got, want := string(appendDuration(nil, dur)), dur.String(); got != want {
		t.Errorf("duration %d appends as %q, want %q", d, got, want)
	}
	if got, want := string(bw.Rate(n).Append(nil)), bw.Rate(n).String(); got != want {
		t.Errorf("rate %d appends as %q, want %q", n, got, want)
	}
	// strs is nil, empty or filled by two bits of shape.
	strs := func(i uint) []core.ConnID {
		switch {
		case bit(i) && bit(i+1):
			return []core.ConnID{core.ConnID(s), "", "C0001"}
		case bit(i):
			return []core.ConnID{}
		}
		return nil
	}
	g, now := fx.net.Graph(), sim.Time(d)

	// Connections: as the controller holds them, then with every exported
	// field the fuzzer's.
	conns := append([]*core.Connection(nil), fx.conns...)
	for _, c := range fx.conns {
		odd := *c
		odd.ID, odd.Customer, odd.From, odd.To = core.ConnID(s), inventory.Customer(s), topo.SiteID(s), ""
		odd.Rate, odd.Layer, odd.Protect, odd.State = bw.Rate(n), core.Layer(n), core.Protection(n>>8), core.State(n>>16)
		odd.RequestedAt, odd.ActiveAt, odd.TotalOutage = sim.Time(-d), sim.Time(d), time.Duration(n)
		odd.Restorations, odd.Rolls = int(n), int(d)
		conns = append(conns, &odd)
	}
	for i, c := range conns {
		sameAsOracle(t, fmt.Sprintf("connection %d", i), func(b []byte) []byte { return appendConnection(b, c, now, g) }, FromConnection(c, now, g))
		moved := bit(uint(i % 16))
		sameAsOracle(t, "regroom", func(b []byte) []byte { return appendRegroom(b, moved, c, now, g) },
			RegroomResponse{Moved: moved, Connection: FromConnection(c, now, g)})
	}
	for _, list := range [][]*core.Connection{nil, {}, conns[:1], conns} {
		var out []ConnectionJSON
		for _, c := range list {
			out = append(out, FromConnection(c, now, g))
		}
		sameAsOracle(t, "listing", func(b []byte) []byte { return appendConnections(b, list, now, g) }, ConnectResponse{Connections: out})
	}

	// Events, both forms.
	evs := append([]core.Event{{At: sim.Time(d), Conn: core.ConnID(s), Kind: s, Text: s}, {At: sim.Time(n), Kind: s}}, fx.evs...)
	for _, list := range [][]core.Event{nil, {}, evs[:2], evs} {
		out := make([]EventJSON, 0, len(list))
		for _, e := range list {
			out = append(out, fromEvent(e))
		}
		sameAsOracle(t, "events", func(b []byte) []byte { return appendEvents(b, list) }, out)
		next := int(n)
		sameAsOracle(t, "events page", func(b []byte) []byte { return appendEventsPage(b, list, next) }, EventsPage{Events: out, Next: next})
	}

	// Alarm groups.
	groups := append([]alarms.Group(nil), fx.groups...)
	oddAlarm := alarms.Alarm{At: sim.Time(d), Node: topo.NodeID(s), Conn: s, Customer: s, Type: alarms.Type(n), Detail: s}
	groups = append(groups,
		alarms.Group{Seq: uint64(n), At: sim.Time(-d), Kind: alarms.GroupKind(n), Link: topo.LinkID(s), Root: oddAlarm},
		alarms.Group{Root: alarms.Alarm{}, Children: []alarms.Alarm{}},
		alarms.Group{Seq: uint64(d), Root: oddAlarm, Children: []alarms.Alarm{oddAlarm, {}}})
	for _, list := range [][]alarms.Group{nil, {}, groups} {
		out := AlarmsResponse{Groups: make([]AlarmGroupJSON, 0, len(list)), Next: uint64(n)}
		for _, g := range list {
			out.Groups = append(out.Groups, FromGroup(g))
		}
		sameAsOracle(t, "alarms", func(b []byte) []byte { return appendAlarms(b, list, uint64(n)) }, out)
	}

	// SLA reports: the fixture's, and one whose every field is the fuzzer's.
	phases := []slo.Phase{{Name: s, Start: sim.Time(d), End: sim.Time(n)}, {Name: "open", Start: sim.Time(-d), Open: true}}
	blocks := []slo.Block{{At: sim.Time(n), Reason: s}}
	outages := []slo.Outage{
		{Start: sim.Time(d), End: sim.Time(n), Cause: slo.Cause(n), Link: topo.LinkID(s), Detail: s, Resolution: s, Phases: phases, Blocks: blocks},
		{Start: sim.Time(-d), Open: bit(2), Phases: phases[:0], Blocks: blocks[:0]},
	}
	row := slo.ConnReport{
		Conn: s, Customer: s, ActivatedAt: sim.Time(d), ReleasedAt: sim.Time(n), Released: bit(3), Degraded: bit(4),
		Lifetime: time.Duration(d), Downtime: time.Duration(n), Availability: x, Outages: outages,
	}
	reports := []slo.CustomerReport{fx.report, {
		Customer: s, Now: sim.Time(d), TotalLifetime: time.Duration(n), TotalDowntime: time.Duration(d),
		Availability: x, OutageCount: int(n), Unattributed: int(d), Conns: []slo.ConnReport{row, {Outages: []slo.Outage{}}},
	}}
	if bit(5) {
		reports = append(reports, slo.CustomerReport{Conns: []slo.ConnReport{}}, slo.CustomerReport{})
	}
	for _, rep := range reports {
		sameAsOracle(t, "sla", func(b []byte) []byte { return appendSLA(b, &rep) }, FromSLAReport(rep))
	}

	// The fixed shapes.
	st := fx.net.Stats()
	for _, links := range [][]topo.LinkID{st.DownLinks, nil, {}, {topo.LinkID(s), ""}} {
		st := core.Stats{Active: int(n), Pending: int(d), Down: -1, Restoring: int(n >> 3), Released: 7, InternalConns: int(n),
			ChannelsInUse: int(d), OTsInUse: 1, OTsTotal: 2, Pipes: int(n), SlotsInUse: 3, SlotsTotal: int(d), DownLinks: links}
		sameAsOracle(t, "stats", func(b []byte) []byte { return appendStats(b, dur, &st) }, fromStats(dur, st))
	}
	sameAsOracle(t, "shards", func(b []byte) []byte { return appendShards(b, fx.net.ShardSet()) }, fromShards(fx.net.ShardSet()))
	sameAsOracle(t, "bill", func(b []byte) []byte { return appendBill(b, s, x) }, BillJSON{Customer: s, GbHours: x})
	sameAsOracle(t, "defrag", func(b []byte) []byte { return appendDefrag(b, int(n), int(d)) }, DefragResponse{Retuned: int(n), MaxChannelNow: int(d)})
	m := core.Maintenance{Link: topo.LinkID(s), Rolled: strs(6), Unmoved: strs(8), Finished: bit(10)}
	sameAsOracle(t, "maintenance", func(b []byte) []byte { return appendMaintenance(b, &m) }, fromMaintenance(&m))
	sameAsOracle(t, "advance", func(b []byte) []byte { return appendAdvance(b, dur) }, map[string]string{"now": dur.String()})
	sameAsOracle(t, "error", func(b []byte) []byte { return appendError(b, s) }, ErrorJSON{Error: s})
	sameAsOracle(t, "topology", func(b []byte) []byte { return appendTopology(b, g) }, fromTopology(g))
}
