package core

import (
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestCutFiberValidation(t *testing.T) {
	_, c := newTestbed(t, 30)
	if err := c.CutFiber("nope"); err == nil {
		t.Error("unknown link cut accepted")
	}
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	if err := c.CutFiber("I-IV"); err == nil {
		t.Error("double cut accepted")
	}
	if err := c.RepairFiber("nope"); err == nil {
		t.Error("unknown link repair accepted")
	}
	if err := c.RepairFiber("I-III"); err == nil {
		t.Error("repair of healthy link accepted")
	}
	if err := c.RepairFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
}

func TestAutomatedRestorationAfterCut(t *testing.T) {
	k, c := newTestbed(t, 31)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Route().String() != "I-IV" {
		t.Fatalf("route = %s", conn.Route())
	}
	cutAt := k.Now()
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	if conn.State != StateDown {
		t.Fatalf("state after cut = %v", conn.State)
	}
	k.Run()

	if conn.State != StateActive {
		t.Fatalf("state after restoration = %v", conn.State)
	}
	if conn.Restorations != 1 {
		t.Errorf("restorations = %d", conn.Restorations)
	}
	if conn.Route().HasLink("I-IV") {
		t.Errorf("restored route still uses the cut link: %s", conn.Route())
	}
	// Outage = alarm + correlation + localization + one setup: minutes,
	// not the 4-12 hours of manual repair (paper Table 1).
	outage := conn.Outage(k.Now())
	if outage < 30*time.Second || outage > 3*time.Minute {
		t.Errorf("restoration outage = %v, want ~70-80 s", outage)
	}
	_ = cutAt
	// The old path's wavelength was released during re-provisioning.
	wantCh := conn.Channels()[0]
	if got := c.Plant().Spectrum(conn.Route().Links[0]).Owner(wantCh); got != string(conn.ID) {
		t.Error("new spectrum not owned by connection")
	}
	used := 0
	for _, l := range c.Graph().Links() {
		used += c.Plant().Spectrum(l.ID).Used()
	}
	if used != conn.Route().Hops() {
		t.Errorf("spectrum in use on %d links, want %d (old path released)", used, conn.Route().Hops())
	}
}

func TestUnprotectedWaitsForRepair(t *testing.T) {
	k := sim.NewKernel(32)
	c, err := New(k, topo.Testbed(), Config{AutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: Unprotected})
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateActive {
		t.Fatalf("state = %v after auto-repair", conn.State)
	}
	// Outage equals the repair-crew time: 4 to 12 hours (paper Table 1).
	if conn.TotalOutage < 4*time.Hour || conn.TotalOutage > 12*time.Hour {
		t.Errorf("unprotected outage = %v, want 4-12 h", conn.TotalOutage)
	}
	if conn.Restorations != 0 {
		t.Errorf("unprotected connection restored %d times", conn.Restorations)
	}
}

func TestOnePlusOneSwitchesInMilliseconds(t *testing.T) {
	k, c := newTestbed(t, 33)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	working := conn.Route()
	if err := c.CutFiber(working.Links[0]); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateActive {
		t.Fatalf("state = %v", conn.State)
	}
	if !conn.onProtect {
		t.Error("traffic not on protect leg")
	}
	if conn.TotalOutage > 200*time.Millisecond {
		t.Errorf("1+1 outage = %v, want ~50 ms", conn.TotalOutage)
	}
	if conn.Route().Equal(working) {
		t.Error("route unchanged after protection switch")
	}
}

func TestOnePlusOneBothLegsDown(t *testing.T) {
	k, c := newTestbed(t, 34)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	// Kill both legs: working I-IV, protect I-III-IV.
	c.CutFiber(conn.path.route.Path.Links[0])
	k.RunFor(time.Second)
	c.CutFiber(conn.protect.route.Path.Links[0])
	k.RunFor(time.Hour)
	if conn.State != StateDown {
		t.Fatalf("state = %v, want down with both legs cut", conn.State)
	}
	// Repair one leg: traffic revives on it.
	c.RepairFiber("I-IV")
	k.Run()
	if conn.State != StateActive {
		t.Errorf("state after repair = %v", conn.State)
	}
}

func TestSharedMeshRestorationSubSecond(t *testing.T) {
	k, c := newTestbed(t, 36)
	// Pre-build a triangle of pipes for disjoint backup paths.
	for _, pair := range [][2]topo.NodeID{{"I", "III"}, {"III", "IV"}, {"I", "IV"}} {
		job, err := c.EnsurePipe(pair[0], pair[1], otn.ODU2)
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if len(conn.backup) == 0 {
		t.Fatal("no shared-mesh backup")
	}
	// Find the fiber link under the circuit's working pipe and cut it.
	carrier := c.Conn(c.PipeCarrier(conn.pipes[0].ID()))
	link := carrier.Route().Links[0]
	c.CutFiber(link)
	k.RunFor(10 * time.Second) // well before any DWDM restoration finishes

	if conn.State != StateActive {
		t.Fatalf("circuit state = %v, want restored via shared mesh", conn.State)
	}
	if conn.TotalOutage >= time.Second {
		t.Errorf("shared-mesh outage = %v, want sub-second (paper §2.1)", conn.TotalOutage)
	}
	if conn.Restorations != 1 {
		t.Errorf("restorations = %d", conn.Restorations)
	}
	k.Run()
}

func TestCircuitWithoutBackupWaitsForPipeRestoration(t *testing.T) {
	k, c := newTestbed(t, 37)
	// Single pipe only: no disjoint backup exists.
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if len(conn.backup) != 0 {
		t.Fatal("unexpected backup")
	}
	carrier := c.Conn(c.PipeCarrier(conn.pipes[0].ID()))
	link := carrier.Route().Links[0]
	c.CutFiber(link)
	if conn.State != StateDown {
		t.Fatalf("circuit state = %v after pipe loss", conn.State)
	}
	k.Run()
	// The carrier wavelength restores automatically (DWDM layer), the
	// pipe comes back, and the circuit revives — outage in the minutes.
	if conn.State != StateActive {
		t.Fatalf("circuit state = %v after carrier restoration", conn.State)
	}
	if carrier.Restorations != 1 {
		t.Errorf("carrier restorations = %d", carrier.Restorations)
	}
	if conn.TotalOutage < 30*time.Second || conn.TotalOutage > 5*time.Minute {
		t.Errorf("circuit outage = %v", conn.TotalOutage)
	}
}

func TestRestorationBlockedThenRepairRevives(t *testing.T) {
	k := sim.NewKernel(38)
	// Two-node topology: no alternate route exists at all.
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
	c.CutFiber("A-B")
	k.Run()
	if conn.State != StateDown {
		t.Fatalf("state = %v, want down (no restoration path)", conn.State)
	}
	c.RepairFiber("A-B")
	k.Run()
	if conn.State != StateActive {
		t.Errorf("state after repair = %v", conn.State)
	}
	if conn.Restorations != 0 {
		t.Errorf("restorations = %d, want 0 (revived by repair)", conn.Restorations)
	}
}

func TestMultipleConnectionsRestoredAfterOneCut(t *testing.T) {
	k, c := newBackbone(t, 39)
	var conns []*Connection
	for _, pair := range [][2]topo.SiteID{
		{"DC-SEA", "DC-CHI"}, {"DC-SEA", "DC-NYC"}, {"DC-SEA", "DC-ATL"},
	} {
		conns = append(conns, mustConnect(t, k, c, Request{Customer: "x", From: pair[0], To: pair[1], Rate: bw.Rate10G}))
	}
	// All three routes leave Seattle over SEA-CHI (hop-shortest).
	for _, conn := range conns {
		if !conn.Route().HasLink("SEA-CHI") {
			t.Skipf("route %s avoids SEA-CHI; topology changed", conn.Route())
		}
	}
	c.CutFiber("SEA-CHI")
	k.Run()
	for _, conn := range conns {
		if conn.State != StateActive {
			t.Errorf("conn %s state = %v", conn.ID, conn.State)
		}
		if conn.Route().HasLink("SEA-CHI") {
			t.Errorf("conn %s still routed over the cut", conn.ID)
		}
		if conn.Restorations != 1 {
			t.Errorf("conn %s restorations = %d", conn.ID, conn.Restorations)
		}
	}
	// One correlation batch served all alarms.
	found := false
	for _, e := range logged(&c.events) {
		if e.Kind == "localized" {
			found = true
			if !contains(e.Text, "SEA-CHI") {
				t.Errorf("localization missed the cut link: %s", e.Text)
			}
		}
	}
	if !found {
		t.Error("no localization event")
	}
}

func TestDisconnectWhileDown(t *testing.T) {
	k, c := newTestbed(t, 40)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: Unprotected})
	c.CutFiber("I-IV")
	k.RunFor(time.Minute)
	job, err := c.Disconnect("x", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil || conn.State != StateReleased {
		t.Fatalf("err=%v state=%v", job.Err(), conn.State)
	}
	// Outage accounting closed at release.
	if conn.inOutage {
		t.Error("outage still open after release")
	}
	if conn.TotalOutage <= 0 {
		t.Error("no outage recorded")
	}
	s := c.Snapshot()
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 {
		t.Errorf("leak after down-disconnect: %+v", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTeardownDuringProtectionSwitch pins the race between a customer
// disconnect and the ~50 ms 1+1 tail-end switch: the switch completion
// callback must not flip a connection that left Active/Down in the meantime
// back to life.
func TestTeardownDuringProtectionSwitch(t *testing.T) {
	k, c := newTestbed(t, 36)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	if err := c.CutFiber(conn.path.route.Path.Links[0]); err != nil {
		t.Fatal(err)
	}
	// Mid-window: the switch is in flight, the connection still reads Active.
	k.RunFor(10 * time.Millisecond)
	if _, err := c.Disconnect("x", conn.ID); err != nil {
		t.Fatal(err)
	}
	k.RunFor(200 * time.Millisecond) // the switch callback fires in here
	if conn.State == StateActive {
		t.Fatal("switch callback revived a connection being torn down")
	}
	k.Run()
	if conn.State != StateReleased {
		t.Errorf("state = %v, want released", conn.State)
	}
	for _, f := range c.AuditInvariants() {
		t.Errorf("audit: %s", f)
	}
}

// TestSecondCutDuringProtectionSwitch: the standby leg dies inside the switch
// window. Completing the switch would put traffic on a dead leg and declare
// the connection Active while delivering nothing.
func TestSecondCutDuringProtectionSwitch(t *testing.T) {
	k, c := newTestbed(t, 37)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	protectLink := conn.protect.route.Path.Links[0]
	if err := c.CutFiber(conn.path.route.Path.Links[0]); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * time.Millisecond)
	// Inside the window, the standby leg goes too.
	if err := c.CutFiber(protectLink); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Minute)
	if conn.State == StateActive {
		t.Fatal("connection Active on a dead protect leg")
	}
	if conn.State != StateDown {
		t.Errorf("state = %v, want down with both legs cut", conn.State)
	}
	// Repairing the standby leg revives the connection on it.
	if err := c.RepairFiber(protectLink); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if conn.State != StateActive {
		t.Errorf("state after repair = %v, want active", conn.State)
	}
	if !conn.onProtect {
		t.Error("traffic should ride the repaired protect leg")
	}
	for _, f := range c.AuditInvariants() {
		t.Errorf("audit: %s", f)
	}
}

// TestCrewNeverRaisesLaterCut: a repair calls off the crew its cut sent, so
// the link's next cut stays down at least the shortest crew time, whoever
// repaired the first.
func TestCrewNeverRaisesLaterCut(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := sim.NewKernel(seed)
		c, err := New(k, topo.Testbed(), Config{AutoRepair: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CutFiber("I-IV"); err != nil {
			t.Fatal(err)
		}
		k.RunFor(time.Hour)
		if err := c.RepairFiber("I-IV"); err != nil {
			t.Fatal(err)
		}
		k.RunFor(time.Hour)
		if err := c.CutFiber("I-IV"); err != nil {
			t.Fatal(err)
		}
		k.RunFor(c.lat.FiberRepairMin - time.Nanosecond)
		if c.Plant().LinkUp("I-IV") {
			t.Errorf("seed %d: I-IV up within %v of its second cut, the shortest crew time", seed, c.lat.FiberRepairMin)
		}
		k.Run()
		if !c.Plant().LinkUp("I-IV") {
			t.Errorf("seed %d: the second cut's crew never repaired I-IV", seed)
		}
	}
}
