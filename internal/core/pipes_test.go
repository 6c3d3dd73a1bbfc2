package core

import (
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func newTestbedGraph() *topo.Graph { return topo.Testbed() }

func mustSite(id, home string, gbps float64) topo.Site {
	return topo.Site{ID: topo.SiteID(id), Home: topo.NodeID(home), AccessGbps: gbps}
}

func topoNode(s string) topo.NodeID { return topo.NodeID(s) }

func TestConnectCircuitBuildsPipeOnDemand(t *testing.T) {
	k, c := newTestbed(t, 20)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})

	if conn.Layer != LayerOTN {
		t.Fatalf("layer = %v", conn.Layer)
	}
	// The empty overlay forced a pipe build: setup includes a full
	// wavelength establishment, so it lands in the minutes range, not
	// seconds — but still "a few minutes" per the paper's vision.
	if conn.SetupTime() < 60*time.Second || conn.SetupTime() > 3*time.Minute {
		t.Errorf("first-circuit setup = %v", conn.SetupTime())
	}
	if len(conn.pipes) != 1 {
		t.Fatalf("pipes = %d", len(conn.pipes))
	}
	pipe := conn.pipes[0]
	if pipe.UsedSlots() != 1 {
		t.Errorf("pipe used slots = %d, want 1 (ODU0)", pipe.UsedSlots())
	}
	// The pipe is carried by an internal wavelength.
	carrier := c.Conn(c.PipeCarrier(pipe.ID()))
	if carrier == nil || !carrier.Internal || carrier.State != StateActive {
		t.Fatal("pipe carrier wavelength missing or not active")
	}
	if carrier.Customer != CarrierCustomer {
		t.Errorf("carrier customer = %s", carrier.Customer)
	}
}

func TestSecondCircuitGroomsIntoExistingPipe(t *testing.T) {
	k, c := newTestbed(t, 21)
	first := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	second := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate2G5})

	// Grooming: both circuits share the single pipe.
	if len(c.fabric.Pipes()) != 1 {
		t.Fatalf("pipes = %d, want 1 (groomed)", len(c.fabric.Pipes()))
	}
	if second.pipes[0] != first.pipes[0] {
		t.Error("second circuit not groomed into the same pipe")
	}
	// ODU0(1) + ODU1(2) slots.
	if got := first.pipes[0].UsedSlots(); got != 3 {
		t.Errorf("used slots = %d, want 3", got)
	}
	// The electronic-only setup is orders of magnitude faster than the
	// first (which had to light a wavelength).
	if second.SetupTime() > 10*time.Second {
		t.Errorf("groomed setup = %v, want seconds", second.SetupTime())
	}
	if second.SetupTime() >= first.SetupTime()/5 {
		t.Errorf("groomed setup %v vs pipe-building %v: no speedup", second.SetupTime(), first.SetupTime())
	}
}

func TestCompositeTwelveGig(t *testing.T) {
	k, c := newTestbed(t, 22)
	conns, job, err := c.ConnectComposite(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: 12 * bw.Gbps})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	// Paper §2.2: 12G = one 10G wavelength + two 1G OTN circuits.
	if len(conns) != 3 {
		t.Fatalf("components = %d", len(conns))
	}
	var dwdm, otnCount int
	var total bw.Rate
	for _, conn := range conns {
		if conn.State != StateActive {
			t.Errorf("component %s state %v", conn.ID, conn.State)
		}
		total += conn.Rate
		switch conn.Layer {
		case LayerDWDM:
			dwdm++
		case LayerOTN:
			otnCount++
		}
	}
	if dwdm != 1 || otnCount != 2 {
		t.Errorf("composition = %d dwdm + %d otn, want 1+2", dwdm, otnCount)
	}
	if total != 12*bw.Gbps {
		t.Errorf("total rate = %v", total)
	}
	// Only ONE wavelength serves the 10G part; the OTN circuits share a
	// second (pipe) wavelength — not a second customer 10G.
	if got := c.Snapshot().InternalConns; got != 1 {
		t.Errorf("internal conns = %d, want 1 pipe carrier", got)
	}
}

func TestCompositeFailureUnwindsSiblings(t *testing.T) {
	k := sim.NewKernel(23)
	cfg := Config{}
	cfg.Optics.Channels = 80
	cfg.Optics.ReachKM = 2500
	cfg.Optics.OTsPerNode = 2 // only one wavelength can terminate per node pair
	c, err := New(k, newTestbedGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 30G composite = 3x10G wavelengths; the third cannot get OTs (two
	// OTs per node).
	_, _, err = c.ConnectComposite(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: 30 * bw.Gbps})
	if err == nil {
		t.Fatal("composite beyond OT pool accepted")
	}
	k.Run()
	s := c.Snapshot()
	if s.OTsInUse != 0 || s.ChannelsInUse != 0 {
		t.Errorf("composite failure leaked: %+v", s)
	}
	if c.accessUsed["DC-A"] != 0 {
		t.Errorf("access leaked: %v", c.accessUsed["DC-A"])
	}
}

func TestEnsurePipe(t *testing.T) {
	k, c := newTestbed(t, 24)
	job, err := c.EnsurePipe("I", "III", otn.ODU3)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	pipes := c.fabric.Pipes()
	if len(pipes) != 1 || pipes[0].TotalSlots() != 32 {
		t.Fatalf("pipes = %v", pipes)
	}
	if _, err := c.EnsurePipe("I", "II", otn.ODU2); err == nil {
		t.Error("pipe to OTN-less PoP accepted")
	}
	if _, err := c.EnsurePipe("II", "I", otn.ODU2); err == nil {
		t.Error("pipe from OTN-less PoP accepted")
	}
}

func TestCircuitToOTNLessPoPFails(t *testing.T) {
	k := sim.NewKernel(25)
	g := newTestbedGraph()
	// Add a site homed at II, which has no OTN switch.
	g.AddSite(mustSite("DC-X", "II", 40))
	c, err := New(k, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-X", Rate: bw.Rate1G}); err == nil {
		t.Error("OTN circuit to a PoP without an OTN switch accepted")
	}
	// A wavelength to the same site works fine.
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-X", Rate: bw.Rate10G})
}

func TestSharedMeshBackupReservedWhenPossible(t *testing.T) {
	k, c := newTestbed(t, 26)
	// Pre-build a triangle of pipes so a disjoint backup path exists.
	for _, pair := range [][2]string{{"I", "III"}, {"III", "IV"}, {"I", "IV"}} {
		job, err := c.EnsurePipe(topoNode(pair[0]), topoNode(pair[1]), otn.ODU2)
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if conn.Protect != SharedMesh {
		t.Fatalf("protect = %v", conn.Protect)
	}
	if len(conn.backup) == 0 {
		t.Fatal("no shared-mesh backup despite a disjoint overlay path")
	}
	// Backup holds shared reservations, not real slots.
	for _, p := range conn.backup {
		if p.UsedSlots() != 0 {
			t.Error("backup pipe has real slots allocated")
		}
		if len(p.SharedOwners()) == 0 {
			t.Error("backup pipe lacks shared reservation")
		}
	}
}

func TestCircuitTeardownFreesSlots(t *testing.T) {
	k, c := newTestbed(t, 27)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate2G5})
	pipe := conn.pipes[0]
	job, err := c.Disconnect("x", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if pipe.UsedSlots() != 0 {
		t.Errorf("slots leaked: %d", pipe.UsedSlots())
	}
	// Teardown of an electronic circuit is fast.
	if job.Elapsed() > 5*time.Second {
		t.Errorf("circuit teardown = %v", job.Elapsed())
	}
	// The pipe itself survives for future circuits.
	if len(c.fabric.Pipes()) != 1 {
		t.Error("pipe retired with the circuit")
	}
}

func TestMultiHopCircuitOverTwoPipes(t *testing.T) {
	k, c := newTestbed(t, 28)
	// Pipes I-III and III-IV exist; none direct I-IV. A circuit DC-A
	// (home I) -> DC-C (home IV) must ride both pipes through the OTN
	// switch at III.
	for _, pair := range [][2]topo.NodeID{{"I", "III"}, {"III", "IV"}} {
		job, err := c.EnsurePipe(pair[0], pair[1], otn.ODU2)
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate2G5})
	if len(conn.pipes) != 2 {
		t.Fatalf("pipes = %d, want 2 (groomed through III)", len(conn.pipes))
	}
	for _, p := range conn.pipes {
		if p.UsedSlots() != 2 {
			t.Errorf("pipe %s slots = %d, want 2", p.ID(), p.UsedSlots())
		}
	}
	// The two-pipe circuit programs three switches; still seconds.
	if conn.SetupTime() > 10*time.Second {
		t.Errorf("multi-hop groomed setup = %v", conn.SetupTime())
	}
	// Failure of the middle: cut the fiber under pipe I-III.
	carrier := c.Conn(c.PipeCarrier(conn.pipes[0].ID()))
	c.CutFiber(carrier.Route().Links[0])
	if conn.State != StateDown {
		t.Fatalf("state = %v after mid-pipe loss", conn.State)
	}
	k.Run()
	// Carrier restoration revives the pipe and the circuit.
	if conn.State != StateActive {
		t.Errorf("state = %v after carrier restoration", conn.State)
	}
	// Teardown releases slots on both pipes.
	c.Disconnect("x", conn.ID)
	k.Run()
	if s := c.Snapshot(); s.SlotsInUse != 0 {
		t.Errorf("slots leaked: %+v", s)
	}
}
