package core

import (
	"strings"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// requirePhaseTiling asserts the closed phases of an outage are contiguous
// (each starts where the previous ended) starting at the outage start.
func requirePhaseTiling(t *testing.T, o slo.Outage) {
	t.Helper()
	cursor := o.Start
	for i, p := range o.Phases {
		if p.Open {
			if i != len(o.Phases)-1 {
				t.Fatalf("open phase %q is not last", p.Name)
			}
			break
		}
		if p.Start != cursor {
			t.Errorf("phase %q starts at %v, want %v (gap in tiling)", p.Name, p.Start, cursor)
		}
		cursor = p.End
	}
}

func TestSLALedgerMatchesRestorationOutage(t *testing.T) {
	k, c := newTestbed(t, 31)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateActive {
		t.Fatalf("state = %v after restoration", conn.State)
	}
	k.RunFor(time.Hour) // accrue some post-restore uptime

	// The ledger and the connection's own outage clock move through the same
	// connDown/connUp chokepoint, so they must agree to the nanosecond.
	if got, want := c.SLA().Downtime(string(conn.ID), k.Now()), conn.Outage(k.Now()); got != want {
		t.Errorf("ledger downtime = %v, connection outage = %v", got, want)
	}

	outages := c.SLA().Outages(string(conn.ID))
	if len(outages) != 1 {
		t.Fatalf("outages = %d, want 1", len(outages))
	}
	o := outages[0]
	if o.Open {
		t.Fatal("outage still open after restoration")
	}
	if o.Cause != slo.CauseFiberCut {
		t.Errorf("cause = %v, want fiber-cut", o.Cause)
	}
	if o.Link != "I-IV" {
		t.Errorf("link = %s, want I-IV", o.Link)
	}
	if o.Customer != "x" {
		t.Errorf("customer = %q", o.Customer)
	}
	if o.Resolution != "restored" {
		t.Errorf("resolution = %q, want restored", o.Resolution)
	}

	// Phases mirror the restoration choreography and tile the interval.
	var names []string
	var sum sim.Duration
	for _, p := range o.Phases {
		if p.Open {
			t.Errorf("phase %q still open in a closed outage", p.Name)
		}
		names = append(names, p.Name)
		sum += p.Duration()
	}
	if got := strings.Join(names, ","); got != "detect,localize,provision" {
		t.Errorf("phases = %s, want detect,localize,provision", got)
	}
	requirePhaseTiling(t, o)
	if want := o.End.Sub(o.Start); sum != want {
		t.Errorf("phases sum to %v but the outage spans %v", sum, want)
	}

	// The customer report rolls it up.
	rep := c.SLAReport("x")
	if rep.OutageCount != 1 || rep.Unattributed != 0 {
		t.Errorf("report outages = %d unattributed = %d", rep.OutageCount, rep.Unattributed)
	}
	if rep.Availability >= 1 || rep.Availability <= 0 {
		t.Errorf("availability = %v, want (0,1) with downtime recorded", rep.Availability)
	}
	if len(rep.Conns) != 1 || rep.Conns[0].Conn != string(conn.ID) {
		t.Fatalf("report conns = %+v", rep.Conns)
	}
}

func TestSLAMaintenanceAttribution(t *testing.T) {
	k := sim.NewKernel(61)
	// Line topology: the connection cannot be rolled off A-B, so it rides
	// the maintenance hit — attributed to planned work, not a fiber cut.
	g := topo.New()
	g.AddNode(topo.Node{ID: "A", HasOTN: true})
	g.AddNode(topo.Node{ID: "B", HasOTN: true})
	g.AddLink(topo.Link{ID: "A-B", A: "A", B: "B", KM: 100})
	g.AddSite(topo.Site{ID: "S1", Home: "A", AccessGbps: 40})
	g.AddSite(topo.Site{ID: "S2", Home: "B", AccessGbps: 40})
	c, err := New(k, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "S1", To: "S2", Rate: bw.Rate10G})
	if _, _, err := c.ScheduleMaintenance("A-B", k.Now().Add(time.Minute), time.Hour); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateActive {
		t.Fatalf("state after window = %v", conn.State)
	}
	outages := c.SLA().Outages(string(conn.ID))
	if len(outages) != 1 {
		t.Fatalf("outages = %d, want 1", len(outages))
	}
	o := outages[0]
	if o.Cause != slo.CauseMaintenance {
		t.Errorf("cause = %v, want maintenance", o.Cause)
	}
	if o.Link != "A-B" {
		t.Errorf("link = %s", o.Link)
	}
	if o.Resolution != "revived" {
		t.Errorf("resolution = %q, want revived", o.Resolution)
	}
	// The restoration attempt was blocked (no alternate path) and says so.
	if len(o.Blocks) == 0 {
		t.Error("no blocked-restoration record in a pathless outage")
	}
	if got, want := c.SLA().Downtime(string(conn.ID), k.Now()), conn.Outage(k.Now()); got != want {
		t.Errorf("ledger downtime = %v, connection outage = %v", got, want)
	}
}

func TestSLAPlannedHitCauses(t *testing.T) {
	k, c := newTestbed(t, 62)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate40G})

	// A maintenance window the connection can be rolled off: the brief
	// bridge-and-roll hit is attributed to the roll, not the link work.
	if _, _, err := c.ScheduleMaintenance("I-IV", k.Now().Add(time.Hour), 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	k.Run()
	outages := c.SLA().Outages(string(conn.ID))
	if len(outages) == 0 {
		t.Fatal("no roll hit recorded")
	}
	roll := outages[0]
	if roll.Cause != slo.CauseRoll {
		t.Errorf("roll cause = %v, want roll", roll.Cause)
	}
	if roll.Resolution != "roll-done" {
		t.Errorf("roll resolution = %q", roll.Resolution)
	}

	// An in-place rate adjustment re-frames the line: a short attributed hit.
	before := len(outages)
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate10G); err != nil {
		t.Fatalf("adjust: %v", err)
	}
	k.Run()
	outages = c.SLA().Outages(string(conn.ID))
	if len(outages) != before+1 {
		t.Fatalf("outages = %d after adjust, want %d", len(outages), before+1)
	}
	adj := outages[len(outages)-1]
	if adj.Cause != slo.CauseAdjust {
		t.Errorf("adjust cause = %v, want rate-adjust", adj.Cause)
	}
	if adj.Resolution != "adjust-done" {
		t.Errorf("adjust resolution = %q", adj.Resolution)
	}
	for _, o := range outages {
		if o.Cause == slo.CauseUnknown {
			t.Errorf("unattributed outage: %v", o)
		}
	}
	if got, want := c.SLA().Downtime(string(conn.ID), k.Now()), conn.Outage(k.Now()); got != want {
		t.Errorf("ledger downtime = %v, connection outage = %v", got, want)
	}
}

func TestAlarmStreamGroupsAndFilters(t *testing.T) {
	k, c := newTestbed(t, 63)
	connX := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	connY := mustConnect(t, k, c, Request{Customer: "y", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if connX.Route().String() != "I-IV" || connY.Route().String() != "I-IV" {
		t.Fatalf("routes = %s / %s, want both on I-IV", connX.Route(), connY.Route())
	}
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()

	// One cut, two tenants, four LOS alarms — one fiber-cut group.
	groups, next := c.AlarmsSince(0, "")
	if len(groups) != 1 {
		t.Fatalf("operator groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.Kind.String() != "fiber-cut" || g.Link != "I-IV" {
		t.Errorf("group = kind %v link %s", g.Kind, g.Link)
	}
	if len(g.Children) != 4 {
		t.Errorf("children = %d, want 4 (two LOS per circuit)", len(g.Children))
	}

	// Per-tenant isolation: each customer sees only its own children.
	forX, _ := c.AlarmsSince(0, "x")
	if len(forX) != 1 || len(forX[0].Children) != 2 {
		t.Fatalf("customer x view = %+v", forX)
	}
	for _, a := range forX[0].Children {
		if a.Customer != "x" {
			t.Errorf("leaked alarm for %q into x's stream", a.Customer)
		}
	}
	forZ, _ := c.AlarmsSince(0, "z")
	if len(forZ) != 0 {
		t.Errorf("customer z sees %d groups, want 0", len(forZ))
	}

	// The cursor resumes with no repeats.
	again, _ := c.AlarmsSince(next, "")
	if len(again) != 0 {
		t.Errorf("resumed stream replayed %d groups", len(again))
	}
}

func TestEventsSinceCursor(t *testing.T) {
	s := newShardSet(t, 1, ShardSetConfig{Seed: 64})
	shardConnect(t, s, "x", "DC-A", "DC-C", bw.Rate10G)
	all, next := s.EventsSince(0)
	if len(all) == 0 || len(all) != len(s.Events()) {
		t.Fatalf("EventsSince(0) = %d events, Events() = %d", len(all), len(s.Events()))
	}
	if next != len(all) {
		t.Errorf("next = %d, want %d", next, len(all))
	}
	// Nothing new yet.
	if more, _ := s.EventsSince(next); len(more) != 0 {
		t.Errorf("caught-up cursor returned %d events", len(more))
	}
	// New activity appears after the cursor only.
	if err := s.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	more, next2 := s.EventsSince(next)
	if len(more) == 0 {
		t.Fatal("no events after a cut+restore")
	}
	if next2 != next+len(more) {
		t.Errorf("next = %d, want %d", next2, next+len(more))
	}
	if more[0].Kind != "fiber-cut" {
		t.Errorf("first resumed event = %q, want fiber-cut", more[0].Kind)
	}
	// Out-of-range cursors clamp instead of panicking.
	if got, _ := s.EventsSince(1 << 30); len(got) != 0 {
		t.Errorf("huge cursor returned %d events", len(got))
	}
	if got, _ := s.EventsSince(-5); len(got) != len(s.Events()) {
		t.Errorf("negative cursor returned %d events", len(got))
	}
}

func TestFlightRecorderCapturesAndDumps(t *testing.T) {
	k := sim.NewKernel(65)
	tr := obs.NewTracer(k)
	c, err := New(k, topo.Testbed(), Config{Tracer: tr, FlightRecorder: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.flight == nil {
		t.Fatal("flight recorder not attached")
	}
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()

	dump, ok := c.DumpFlight("test-trip", []string{"synthetic finding"})
	if !ok {
		t.Fatal("DumpFlight reported no recorder")
	}
	if dump.Reason != "test-trip" || len(dump.Findings) != 1 {
		t.Errorf("dump header = %q / %v", dump.Reason, dump.Findings)
	}
	if len(dump.Events) == 0 || len(dump.Events) > 8 {
		t.Errorf("dump events = %d, want 1..8 (bounded ring)", len(dump.Events))
	}
	if len(dump.Commits) == 0 || len(dump.Commits) > 8 {
		t.Errorf("dump commits = %d, want 1..8", len(dump.Commits))
	}
	if len(dump.Alarms) == 0 {
		t.Error("dump has no alarm groups after a fiber cut")
	}
	if len(dump.Spans) == 0 || len(dump.Spans) > 8 {
		t.Errorf("dump spans = %d, want 1..8", len(dump.Spans))
	}
	// Closed outage: not in the open-outage section.
	if len(dump.Outages) != 0 {
		t.Errorf("open outages = %d after restoration", len(dump.Outages))
	}

	// Without the config knob there is no recorder and DumpFlight says so.
	k2, c2 := newTestbed(t, 66)
	_ = k2
	if _, ok := c2.DumpFlight("x", nil); ok {
		t.Error("DumpFlight succeeded without a recorder")
	}
}

// TestRestoreSpanTilingSecondCut (the discriminating case): a second cut kills
// the restoration path while it is being provisioned. The op:restore span must
// close as blocked and its phase children must still tile it exactly, and the
// ledger's open outage must agree with the connection's own clock.
func TestRestoreSpanTilingSecondCut(t *testing.T) {
	k := sim.NewKernel(67)
	tr := obs.NewTracer(k)
	c, err := New(k, topo.Testbed(), Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	// Walk virtual time until the restoration setup is in flight.
	for i := 0; i < 600 && conn.State != StateRestoring; i++ {
		k.RunFor(time.Second)
	}
	if conn.State != StateRestoring {
		t.Fatalf("state = %v, restoration never started", conn.State)
	}
	// Every route into node IV needs I-IV or III-IV; the first is already
	// dark, so this kills the path being provisioned.
	if err := c.CutFiber("III-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateDown {
		t.Fatalf("state = %v, want down after the second cut", conn.State)
	}

	restores := tr.SpansNamed("op:restore")
	if len(restores) != 1 {
		t.Fatalf("op:restore spans = %d, want 1", len(restores))
	}
	restore := restores[0]
	if restore.Outcome != "blocked" {
		t.Errorf("op:restore outcome = %q, want blocked", restore.Outcome)
	}
	var sum sim.Duration
	var names []string
	for _, ph := range tr.Children(restore.ID) {
		names = append(names, ph.Name)
		sum += ph.Duration()
	}
	if got := strings.Join(names, ","); got != "restore:detect,restore:localize,restore:provision" {
		t.Errorf("phase spans = %s", got)
	}
	// One virtual clock: the children tile the parent exactly, even though
	// the operation died mid-provision.
	if sum != restore.Duration() {
		t.Errorf("phase spans sum to %v but op:restore spans %v", sum, restore.Duration())
	}

	// The ledger mirrors the same story: an open fiber-cut outage whose
	// closed phases tile up to the blocked instant, then repair-wait.
	outages := c.SLA().Outages(string(conn.ID))
	if len(outages) != 1 {
		t.Fatalf("outages = %d, want 1", len(outages))
	}
	o := outages[0]
	if !o.Open {
		t.Fatal("outage closed while the connection is down")
	}
	if o.Cause != slo.CauseFiberCut || o.Link != "I-IV" {
		t.Errorf("attribution = %v on %s, want fiber-cut on I-IV", o.Cause, o.Link)
	}
	requirePhaseTiling(t, o)
	last := o.Phases[len(o.Phases)-1]
	if !last.Open || last.Name != "repair-wait" {
		t.Errorf("last phase = %+v, want open repair-wait", last)
	}
	if len(o.Blocks) == 0 {
		t.Error("no block record for the failed restoration")
	} else if got := o.Blocks[len(o.Blocks)-1].Reason; !contains(got, "restoration path failed") {
		t.Errorf("block reason = %q", got)
	}
	// The closed phases cover exactly [start of outage, start of repair-wait],
	// which is the op:restore interval.
	if o.Start != restore.Start || last.Start != restore.End {
		t.Errorf("ledger phases [%v..%v] disagree with op:restore [%v..%v]",
			o.Start, last.Start, restore.Start, restore.End)
	}
	if got, want := c.SLA().Downtime(string(conn.ID), k.Now()), conn.Outage(k.Now()); got != want {
		t.Errorf("ledger downtime = %v, connection outage = %v", got, want)
	}
	for _, f := range c.AuditInvariants() {
		t.Errorf("audit: %s", f)
	}
}
