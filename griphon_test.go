package griphon

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func newNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	n, err := New(Testbed(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestQuickstartFlow(t *testing.T) {
	n := newNet(t, WithSeed(42))
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	st := conn.SetupTime()
	if st < 55*time.Second || st > 70*time.Second {
		t.Errorf("setup = %v, want ~62 s (Table 2, 1 hop)", st)
	}
	if got := n.Connections("acme"); len(got) != 1 || got[0] != conn {
		t.Errorf("Connections = %v", got)
	}
	if err := n.Disconnect("acme", conn.ID); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Active != 0 || s.ChannelsInUse != 0 {
		t.Errorf("leak after disconnect: %+v", s)
	}
}

// TestFastSetupViaFacade: WithFastSetup roughly halves the quickstart's
// wavelength setup time and leaves the resource books balanced.
func TestFastSetupViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(42), WithFastSetup())
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if st := conn.SetupTime(); st > 35*time.Second {
		t.Errorf("fast setup = %v, want well under the ~62 s serial baseline", st)
	}
	if err := n.Disconnect("acme", conn.ID); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Active != 0 || s.ChannelsInUse != 0 {
		t.Errorf("leak after disconnect: %+v", s)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(NewTopology()); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestTopologyBuilder(t *testing.T) {
	tp := NewTopology()
	if err := tp.AddPoP("A", true); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddPoP("B", true); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddFiber("A-B", "A", "B", 500); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSite("S1", "A", 40); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSite("S2", "B", 40); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tp.PoPs(); len(got) != 2 || got[0] != "A" {
		t.Errorf("PoPs = %v", got)
	}
	if got := tp.Sites(); len(got) != 2 {
		t.Errorf("Sites = %v", got)
	}
	if got := tp.Fibers(); len(got) != 1 || got[0] != "A-B" {
		t.Errorf("Fibers = %v", got)
	}
	n, err := New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("c", "S1", "S2", Rate10G); err != nil {
		t.Fatal(err)
	}
	// Builder error paths.
	if err := tp.AddPoP("A", false); err == nil {
		t.Error("duplicate PoP accepted")
	}
	if err := tp.AddFiber("X", "A", "Z", 10); err == nil {
		t.Error("fiber to unknown PoP accepted")
	}
	if err := tp.AddSite("S3", "Z", 40); err == nil {
		t.Error("site at unknown PoP accepted")
	}
}

func TestCompositeViaConnect(t *testing.T) {
	n := newNet(t)
	conn, err := n.Connect("acme", "DC-A", "DC-B", 12*Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if conn == nil {
		t.Fatal("nil connection")
	}
	comps := n.Connections("acme")
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (10G + 2x1G)", len(comps))
	}
	var total Rate
	for _, c := range comps {
		total += c.Rate
	}
	if total != 12*Gbps {
		t.Errorf("total = %v", total)
	}
}

func TestFailureRestorationViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(7))
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	route := conn.Route()
	if err := n.CutFiber(string(route.Links[0])); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if conn.State.String() != "active" {
		t.Errorf("state = %v after restoration", conn.State)
	}
	if conn.Restorations != 1 {
		t.Errorf("restorations = %d", conn.Restorations)
	}
	if err := n.RepairFiber(string(route.Links[0])); err != nil {
		t.Fatal(err)
	}
	if err := n.CutFiber("no-such-link"); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestMaintenanceViaFacade(t *testing.T) {
	n := newNet(t)
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	link := string(conn.Route().Links[0])
	m, err := n.ScheduleMaintenance(link, time.Hour, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if !m.Finished {
		t.Error("maintenance not finished")
	}
	if len(m.Rolled) != 1 {
		t.Errorf("rolled = %v", m.Rolled)
	}
	if conn.TotalOutage > 100*time.Millisecond {
		t.Errorf("outage = %v, want near-hitless", conn.TotalOutage)
	}
}

// eventsAt returns the events of one kind on a link and fails the test
// unless there are want of them, all at one instant.
func eventsAt(t *testing.T, n *Network, kind, link string, want int) []Event {
	t.Helper()
	var evs []Event
	for _, e := range n.Events() {
		if e.Kind == kind && strings.Contains(e.Text, link) {
			evs = append(evs, e)
		}
	}
	if len(evs) != want {
		t.Fatalf("%d %s events on %s, want %d: %v", len(evs), kind, link, want, evs)
	}
	for _, e := range evs[1:] {
		if e.At != evs[0].At {
			t.Errorf("%s at %v and at %v, want one instant", kind, evs[0].At, e.At)
		}
	}
	return evs
}

// TestShardedCutIsOneEvent: shard 0 decides a fiber cut and its repair. An
// awaited connect has run acme's shard's clock ahead of the others, yet every
// shard's replica takes the cut at one instant, one crew is sent, and the
// crew repairs every replica at one instant. The link is down everywhere, so
// a second cut is refused.
func TestShardedCutIsOneEvent(t *testing.T) {
	n := newNet(t, WithSeed(1), WithShards(4), WithAutoRepair())
	if _, err := n.Connect("acme", "DC-A", "DC-C", Rate10G); err != nil {
		t.Fatal(err)
	}
	if err := n.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	if err := n.CutFiber("I-IV"); err == nil {
		t.Error("second cut of a down link accepted")
	}
	eventsAt(t, n, "fiber-cut", "I-IV", 4)
	eventsAt(t, n, "repair-dispatch", "I-IV", 1)
	n.Drain()
	eventsAt(t, n, "repair", "I-IV", 4)
}

// TestShardedMaintenanceOpensAtOneInstant: planned work is plant state, so
// every shard opens the window at the same virtual instant, even after an
// awaited connect has run one shard's clock ahead of the others. Each shard
// rolls its own customers off the link; the link is cut on every shard at
// one instant, once the last roll is done, and returned at one instant. The
// record returned is every shard's: it lists what each shard rolled, and is
// finished once the window has closed.
func TestShardedMaintenanceOpensAtOneInstant(t *testing.T) {
	n := newNet(t, WithShards(4))
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	m, err := n.ScheduleMaintenance("I-IV", time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(time.Hour + 30*time.Second)
	eventsAt(t, n, "maintenance-start", "I-IV", 4)
	n.Drain()
	if !slices.Contains(m.Rolled, conn.ID) || len(m.Unmoved) != 0 || !m.Finished {
		t.Errorf("record after the window: rolled %v, unmoved %v, finished %v; want %s rolled and finished",
			m.Rolled, m.Unmoved, m.Finished, conn.ID)
	}
	cut := eventsAt(t, n, "fiber-cut", "I-IV", 4)[0].At
	repair := eventsAt(t, n, "repair", "I-IV", 4)[0].At
	if got := repair.Sub(cut); got != time.Hour {
		t.Errorf("link out of service for %v, want the 1h window", got)
	}
}

func TestBridgeAndRollAndRegroomViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(3))
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	old := conn.Route()
	if err := n.BridgeAndRoll("acme", conn.ID); err != nil {
		t.Fatal(err)
	}
	if conn.Route().Equal(old) {
		t.Error("route unchanged")
	}
	// Now a regroom brings it back to the short path.
	moved, err := n.Regroom("acme", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Error("regroom did not move back to the short path")
	}
	if !conn.Route().Equal(old) {
		t.Errorf("route = %v, want %v", conn.Route(), old)
	}
}

func TestQuotaViaFacade(t *testing.T) {
	n := newNet(t)
	n.SetQuota("acme", 1, 0)
	if _, err := n.Connect("acme", "DC-A", "DC-B", Rate10G); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("acme", "DC-A", "DC-C", Rate10G); err == nil {
		t.Error("quota not enforced")
	}
}

func TestEventsAndStatsViaFacade(t *testing.T) {
	n := newNet(t)
	conn, err := n.Connect("acme", "DC-A", "DC-B", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Events()) == 0 {
		t.Error("no events")
	}
	evs := n.EventsFor(conn.ID)
	if len(evs) < 2 {
		t.Errorf("events for conn = %d", len(evs))
	}
	if n.Stats().Active != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
	if n.Conn(conn.ID) != conn {
		t.Error("Conn lookup failed")
	}
	if n.Conn("C9999") != nil {
		t.Error("unknown Conn returned non-nil")
	}
}

func TestAdvanceAndNow(t *testing.T) {
	n := newNet(t)
	if n.Now() != 0 {
		t.Errorf("Now = %v at start", n.Now())
	}
	n.Advance(90 * time.Second)
	if n.Now() != 90*time.Second {
		t.Errorf("Now = %v after Advance", n.Now())
	}
	// ConnectAsync leaves the connection pending until time passes.
	conn, err := n.ConnectAsync("acme", "DC-A", "DC-B", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if conn.State.String() != "pending" {
		t.Errorf("state right after async connect = %v", conn.State)
	}
	n.Advance(2 * time.Minute)
	if conn.State.String() != "active" {
		t.Errorf("state after 2 min = %v", conn.State)
	}
}

// TestAdvanceSaturatesAtForever: a duration that would carry the clock past
// the last representable instant runs it to that instant, with every event on
// the way, instead of wrapping into the past and doing nothing.
func TestAdvanceSaturatesAtForever(t *testing.T) {
	n := newNet(t)
	n.Advance(time.Second)
	conn, err := n.ConnectAsync("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(math.MaxInt64)
	if n.Now() != math.MaxInt64 {
		t.Errorf("Now = %v, want the last instant %v", n.Now(), time.Duration(math.MaxInt64))
	}
	if conn.State.String() != "active" {
		t.Errorf("pending connection is %v after advancing past every event", conn.State)
	}
	for _, f := range n.AuditInvariants() {
		t.Error(f)
	}
}

// TestConnectNearForever: an operation whose events would land past the last
// instant completes at it instead of scheduling into the past.
func TestConnectNearForever(t *testing.T) {
	n := newNet(t)
	n.Advance(time.Second)
	n.Advance(math.MaxInt64 - 2*time.Second)
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if conn.State.String() != "active" {
		t.Errorf("state = %v, want active", conn.State)
	}
	for _, f := range n.AuditInvariants() {
		t.Error(f)
	}
}

func TestParseRateFacade(t *testing.T) {
	r, err := ParseRate("2.5G")
	if err != nil || r != Rate2G5 {
		t.Errorf("ParseRate = %v, %v", r, err)
	}
	if _, err := ParseRate("bogus"); err == nil {
		t.Error("bogus rate accepted")
	}
}

func TestOnePlusOneViaFacade(t *testing.T) {
	n := newNet(t)
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G, OnePlusOne)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Protect != OnePlusOne {
		t.Errorf("protect = %v", conn.Protect)
	}
	n.CutFiber(string(conn.Route().Links[0]))
	n.Drain()
	if conn.TotalOutage > 200*time.Millisecond {
		t.Errorf("1+1 outage = %v", conn.TotalOutage)
	}
}

func TestAdjustRateViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(12))
	conn, err := n.Connect("acme", "DC-A", "DC-B", Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AdjustRate("acme", conn.ID, Rate2G5); err != nil {
		t.Fatal(err)
	}
	if conn.Rate != Rate2G5 {
		t.Errorf("rate = %v", conn.Rate)
	}
	if err := n.AdjustRate("evil", conn.ID, Rate1G); err == nil {
		t.Error("cross-customer adjust accepted")
	}
}

func TestScheduleConnectViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(13))
	b, err := n.ScheduleConnect("acme", "DC-A", "DC-C", Rate10G, 2*time.Hour, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if b.Done.Err() != nil {
		t.Fatal(b.Done.Err())
	}
	if len(b.Conns) != 1 || b.Conns[0].State.String() != "released" {
		t.Errorf("booking = %+v", b.Conns)
	}
	if s := n.Stats(); s.ChannelsInUse != 0 {
		t.Errorf("leak: %+v", s)
	}
}

func TestReachForRateOptionViaFacade(t *testing.T) {
	n := newNet(t, WithSeed(14), WithReachForRate(Rate40G, 300), WithRegensPerNode(4))
	conn, err := n.Connect("acme", "DC-A", "DC-B", Rate40G)
	if err != nil {
		t.Fatal(err)
	}
	// DC-A (I) to DC-B (III): I-III is 310 km > 300 km 40G reach, so the
	// route must regenerate or detour.
	if conn.Route().KM(n.Graph()) <= 300 {
		return // a short path existed; nothing to check
	}
	if conn.SetupTime() == 0 {
		t.Error("no setup recorded")
	}
}
