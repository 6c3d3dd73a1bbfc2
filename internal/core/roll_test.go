package core

import (
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestBridgeAndRollNearHitless(t *testing.T) {
	k, c := newTestbed(t, 50)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	oldRoute := conn.Route()
	outageBefore := conn.TotalOutage

	job, err := c.BridgeAndRoll("x", conn.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if conn.Route().Equal(oldRoute) {
		t.Error("route unchanged after roll")
	}
	if !linkDisjoint(conn.Route(), oldRoute) {
		t.Errorf("new route %s shares links with old %s (paper requires disjoint)", conn.Route(), oldRoute)
	}
	if conn.Rolls != 1 {
		t.Errorf("rolls = %d", conn.Rolls)
	}
	// The hit is the ~25 ms roll, nothing more.
	hit := conn.TotalOutage - outageBefore
	if hit <= 0 || hit > 100*time.Millisecond {
		t.Errorf("roll hit = %v, want ~25 ms (almost hitless)", hit)
	}
	// Old path resources released: only the new route's links hold spectrum.
	used := 0
	for _, l := range c.Graph().Links() {
		used += c.Plant().Spectrum(l.ID).Used()
	}
	if used != conn.Route().Hops() {
		t.Errorf("spectrum on %d links, want %d", used, conn.Route().Hops())
	}
	// The terminating OTs were reused, not doubled.
	if got := c.Snapshot().OTsInUse; got != 2 {
		t.Errorf("OTs in use = %d, want 2", got)
	}
}

func TestBridgeAndRollChecks(t *testing.T) {
	k, c := newTestbed(t, 51)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if _, err := c.BridgeAndRoll("y", conn.ID, nil); err == nil {
		t.Error("cross-customer roll accepted")
	}
	if _, err := c.BridgeAndRoll("x", "C9999", nil); err == nil {
		t.Error("unknown connection roll accepted")
	}
	circuit := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if _, err := c.BridgeAndRoll("x", circuit.ID, nil); err == nil {
		t.Error("roll of an OTN circuit accepted")
	}
	c.CutFiber(conn.Route().Links[0])
	if _, err := c.BridgeAndRoll("x", conn.ID, nil); err == nil {
		t.Error("roll of a down connection accepted")
	}
	k.Run()
}

func TestBridgeAndRollNoDisjointPath(t *testing.T) {
	k := sim.NewKernel(52)
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
	if _, err := c.BridgeAndRoll("x", conn.ID, nil); err == nil {
		t.Error("roll without a disjoint path accepted")
	}
}

func TestScheduledMaintenanceMovesTraffic(t *testing.T) {
	k, c := newTestbed(t, 53)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Route().String() != "I-IV" {
		t.Fatalf("route = %s", conn.Route())
	}
	outageBefore := conn.TotalOutage

	m, job, err := c.ScheduleMaintenance("I-IV", k.Now().Add(time.Hour), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if !m.Finished {
		t.Error("maintenance not finished")
	}
	if len(m.Rolled) != 1 || m.Rolled[0] != conn.ID {
		t.Errorf("rolled = %v", m.Rolled)
	}
	if len(m.Unmoved) != 0 {
		t.Errorf("unmoved = %v", m.Unmoved)
	}
	// The connection survived with only the roll hit, despite a 2-hour
	// link outage — that is the paper's "minimal impact during
	// maintenance".
	hit := conn.TotalOutage - outageBefore
	if hit > 100*time.Millisecond {
		t.Errorf("maintenance impact = %v, want ~25 ms", hit)
	}
	if conn.State != StateActive {
		t.Errorf("state = %v", conn.State)
	}
	// The link is back in service afterwards.
	if !c.Plant().LinkUp("I-IV") {
		t.Error("link not returned to service")
	}
}

func TestMaintenanceValidation(t *testing.T) {
	k, c := newTestbed(t, 54)
	if _, _, err := c.ScheduleMaintenance("nope", k.Now(), time.Hour); err == nil {
		t.Error("unknown link maintenance accepted")
	}
	if _, _, err := c.ScheduleMaintenance("I-IV", k.Now(), 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestMaintenanceHitsUnmovableConnection(t *testing.T) {
	k := sim.NewKernel(55)
	// Line topology: the connection cannot be moved off A-B.
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
	m, job, err := c.ScheduleMaintenance("A-B", k.Now().Add(time.Minute), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if len(m.Unmoved) != 1 || m.Unmoved[0] != conn.ID {
		t.Errorf("unmoved = %v", m.Unmoved)
	}
	// The unmovable connection took roughly the whole window as outage.
	if conn.TotalOutage < 30*time.Minute {
		t.Errorf("unmovable outage = %v, want ~1 h window", conn.TotalOutage)
	}
	if conn.State != StateActive {
		t.Errorf("state after window = %v", conn.State)
	}
}

func TestRegroomImprovesPath(t *testing.T) {
	k, c := newTestbed(t, 56)
	// Force the long 3-hop path by downing the better links, then repair
	// them: the connection stays on the long path until re-groomed — the
	// paper's "new routes become available" scenario.
	c.Plant().SetLinkUp("I-IV", false)
	c.Plant().SetLinkUp("I-III", false)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Route().Hops() != 3 {
		t.Fatalf("route = %s", conn.Route())
	}
	c.Plant().SetLinkUp("I-IV", true)
	c.Plant().SetLinkUp("I-III", true)

	moved, job, err := c.Regroom("x", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("regroom did not move despite a better path")
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if conn.Route().Hops() != 1 {
		t.Errorf("route after regroom = %s, want I-IV", conn.Route())
	}
	// Second regroom is a no-op: already optimal.
	moved, job, err = c.Regroom("x", conn.ID)
	if err != nil || moved {
		t.Errorf("second regroom moved=%v err=%v", moved, err)
	}
	k.Run()
	if job.Err() != nil {
		t.Error(job.Err())
	}
}

func TestRegroomChecks(t *testing.T) {
	k, c := newTestbed(t, 57)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if _, _, err := c.Regroom("y", conn.ID); err == nil {
		t.Error("cross-customer regroom accepted")
	}
	if _, _, err := c.Regroom("x", "C9999"); err == nil {
		t.Error("unknown connection regroom accepted")
	}
	circuit := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if _, _, err := c.Regroom("x", circuit.ID); err == nil {
		t.Error("regroom of OTN circuit accepted")
	}
}

func TestRollDuringCutAborts(t *testing.T) {
	k, c := newTestbed(t, 58)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	job, err := c.BridgeAndRoll("x", conn.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the WORKING path mid-bridge: the roll must abort and
	// restoration takes over.
	k.RunFor(10 * time.Second)
	c.CutFiber(conn.Route().Links[0])
	k.Run()
	if job.Err() == nil {
		t.Error("roll job succeeded despite the connection going down")
	}
	if conn.State != StateActive {
		t.Errorf("state = %v, want active after restoration", conn.State)
	}
	if conn.Restorations != 1 {
		t.Errorf("restorations = %d", conn.Restorations)
	}
	// No resource leaks from the abandoned bridge.
	used := 0
	for _, l := range c.Graph().Links() {
		used += c.Plant().Spectrum(l.ID).Used()
	}
	if used != conn.Route().Hops() {
		t.Errorf("spectrum on %d links, want %d", used, conn.Route().Hops())
	}
}

func TestSnapshotAndString(t *testing.T) {
	k, c := newTestbed(t, 59)
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	s := c.Snapshot()
	if s.Active != 1 {
		t.Errorf("active = %d", s.Active)
	}
	if s.ChannelsInUse != 1 || s.OTsInUse != 2 {
		t.Errorf("plant usage: %+v", s)
	}
	out := s.String()
	if !contains(out, "active") || !contains(out, "OTs") {
		t.Errorf("Stats.String = %q", out)
	}
	c.Plant().SetLinkUp("I-II", false)
	if got := c.Snapshot().DownLinks; len(got) != 1 || got[0] != "I-II" {
		t.Errorf("down links = %v", got)
	}
	if !contains(c.Snapshot().String(), "down links") {
		t.Error("String omits down links")
	}
}

func TestStateAndEnumStrings(t *testing.T) {
	for s, want := range map[State]string{
		StatePending: "pending", StateActive: "active", StateDown: "down",
		StateRestoring: "restoring", StateTearingDown: "tearing-down", StateReleased: "released",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if State(99).String() == "" || Layer(99).String() == "" || Protection(99).String() == "" {
		t.Error("unknown enum strings empty")
	}
	if LayerDWDM.String() != "dwdm" || LayerOTN.String() != "otn" {
		t.Error("layer strings")
	}
	for p, want := range map[Protection]string{
		Restore: "restore", OnePlusOne: "1+1", Unprotected: "unprotected", SharedMesh: "shared-mesh",
	} {
		if p.String() != want {
			t.Errorf("protection %d = %q", int(p), p.String())
		}
	}
}

// TestMaintenanceSendsNoCrew: planned work returns its link when the window
// closes, not when a repair crew would arrive. Thirteen hours into a 24 h
// window, past the longest crew time, the link is still down, and it comes
// up at maintenance-done.
func TestMaintenanceSendsNoCrew(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := sim.NewKernel(seed)
		c, err := New(k, topo.Testbed(), Config{AutoRepair: true})
		if err != nil {
			t.Fatal(err)
		}
		at := k.Now().Add(time.Hour)
		if _, _, err := c.ScheduleMaintenance("I-IV", at, 24*time.Hour); err != nil {
			t.Fatal(err)
		}
		k.RunUntil(at.Add(13 * time.Hour))
		if c.Plant().LinkUp("I-IV") {
			t.Errorf("seed %d: I-IV back in service 13 h into its 24 h window", seed)
		}
		k.Run()
		times := map[string]sim.Time{}
		for _, e := range logged(&c.events) {
			times[e.Kind] = e.At
		}
		if _, ok := times["repair-dispatch"]; ok {
			t.Errorf("seed %d: planned work sent a repair crew", seed)
		}
		if times["repair"] != times["maintenance-done"] {
			t.Errorf("seed %d: I-IV repaired at %v, window closed at %v", seed, times["repair"], times["maintenance-done"])
		}
	}
}
