package core

import (
	"strings"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestFXCPortExhaustionBlocks(t *testing.T) {
	k := sim.NewKernel(140)
	cfg := Config{FXCClientPorts: 1, FXCLinePorts: 1}
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	// The single client/line pair at I is taken.
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}); err == nil {
		t.Error("connect beyond FXC ports accepted")
	}
	// The failure rolled back: OTs free again beyond the first conn.
	if got := c.Snapshot().OTsInUse; got != 2 {
		t.Errorf("OTs in use = %d, want 2", got)
	}
	// Releasing the first connection frees the ports for the next.
	conn := c.CustomerConnections("x")[0]
	if _, err := c.Disconnect("x", conn.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
}

func TestPipeBuildFailsWhenNoSpectrum(t *testing.T) {
	k := sim.NewKernel(141)
	cfg := Config{}
	cfg.Optics.Channels = 1
	cfg.Optics.ReachKM = 2500
	cfg.Optics.OTsPerNode = 8
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single channel everywhere between I and III.
	c.Plant().Spectrum("I-III").Reserve(1, "hog")
	c.Plant().Spectrum("I-II").Reserve(1, "hog")
	c.Plant().Spectrum("I-IV").Reserve(1, "hog")
	// The OTN circuit needs a pipe, the pipe needs a wavelength, and
	// there is none: setup must fail asynchronously and clean up.
	conn, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if err != nil {
		t.Fatalf("synchronous failure, want async: %v", err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("circuit setup succeeded without spectrum")
	}
	if conn.State != StateReleased {
		t.Errorf("state = %v", conn.State)
	}
	if c.accessUsed["DC-A"] != 0 {
		t.Error("access leaked")
	}
	if u := c.ledger.UsageOf("x"); u.Connections != 0 {
		t.Errorf("ledger leaked: %+v", u)
	}
}

func TestProbeRouteIsPure(t *testing.T) {
	k, c := newTestbed(t, 142)
	r, err := c.ProbeRoute("I", "IV", bw.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if r.Path.String() != "I-IV" {
		t.Errorf("probe path = %s", r.Path)
	}
	// Probing reserves nothing.
	if got := c.Snapshot().ChannelsInUse; got != 0 {
		t.Errorf("probe reserved %d channel-links", got)
	}
	if _, err := c.ProbeRoute("I", "I", bw.Rate10G); err == nil {
		t.Error("self probe accepted")
	}
	_ = k
}

func TestAccessorsAndStrings(t *testing.T) {
	k, c := newTestbed(t, 143)
	if c.k != k {
		t.Error("Kernel accessor")
	}
	if c.lat.LaserTune == 0 {
		t.Error("Latencies accessor")
	}
	if c.otnEMS == nil || c.roadmEMS == nil {
		t.Error("EMS accessors")
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if got := conn.PipeIDs(); len(got) != 1 {
		t.Errorf("PipeIDs = %v", got)
	}
	evs := c.EventsFor(conn.ID)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	found := false
	for _, e := range evs {
		s := e.String()
		if strings.Contains(s, string(conn.ID)) && strings.Contains(s, "request") {
			found = true
		}
	}
	if !found {
		t.Errorf("no request event rendered for %s: %v", conn.ID, evs)
	}
	got := c.CustomerConnections("x")
	if len(got) != 1 || got[0] != conn {
		t.Errorf("CustomerConnections = %v", got)
	}
	// Internal carrier conns never appear in a customer's view.
	if carrier := c.CustomerConnections(CarrierCustomer); len(carrier) != 0 {
		t.Errorf("carrier view shows %d conns", len(carrier))
	}
}

func TestSetupTimeZeroWhilePending(t *testing.T) {
	_, c := newTestbed(t, 144)
	conn, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	if conn.SetupTime() != 0 {
		t.Errorf("pending SetupTime = %v, want 0", conn.SetupTime())
	}
}

func TestReclaimSkipsBusyAndDownPipes(t *testing.T) {
	k, c := newTestbed(t, 145)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	// Busy pipe is not reclaimed.
	job, n := c.ReclaimIdlePipes()
	k.Run()
	if n != 0 || job.Err() != nil {
		t.Errorf("reclaimed %d busy pipes (err %v)", n, job.Err())
	}
	// A down pipe is not reclaimed either.
	carrier := c.Conn(c.PipeCarrier(conn.pipes[0].ID()))
	if _, err := c.Disconnect("x", conn.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	link := carrier.Route().Links[0]
	c.CutFiber(link)
	// Immediately after the cut (pipe down, carrier restoring).
	_, n = c.ReclaimIdlePipes()
	if n != 0 {
		t.Errorf("reclaimed %d down pipes", n)
	}
	k.Run() // restoration brings the pipe back
	job, n = c.ReclaimIdlePipes()
	k.Run()
	if n != 1 || job.Err() != nil {
		t.Errorf("post-restore reclaim = %d (err %v)", n, job.Err())
	}
}

func TestDisconnectDuringRestoration(t *testing.T) {
	k, c := newTestbed(t, 146)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	c.CutFiber(conn.Route().Links[0])
	// Advance until restoration is underway but not finished.
	k.RunFor(30 * time.Second)
	if conn.State != StateRestoring {
		t.Skipf("state = %v at 30 s; timing shifted", conn.State)
	}
	job, err := c.Disconnect("x", conn.ID)
	if err != nil {
		t.Fatalf("cancel during restoration rejected: %v", err)
	}
	k.Run()
	if job.Err() != nil || conn.State != StateReleased {
		t.Fatalf("err=%v state=%v", job.Err(), conn.State)
	}
	// Both the old path's and the abandoned restoration path's resources
	// must be home.
	s := c.Snapshot()
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 || s.RegensInUse != 0 {
		t.Errorf("leak after mid-restoration cancel: %+v", s)
	}
	total := 0
	for _, n := range c.Graph().Nodes() {
		total += c.roadms.Node(n.ID).AddDropUsed()
	}
	if total != 0 {
		t.Errorf("ROADM state leaked: %d", total)
	}
}

func TestAdjustPendingRejected(t *testing.T) {
	_, c := newTestbed(t, 147)
	conn, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate2G5); err == nil {
		t.Error("adjust of a pending connection accepted")
	}
}

func TestMaintenanceWithOnePlusOneStandbyOnLink(t *testing.T) {
	k, c := newTestbed(t, 148)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	// Maintain a link only the STANDBY leg uses: traffic must ride
	// through the whole window unharmed (the standby takes the hit).
	standby := conn.protect.route.Path
	var link topo.LinkID
	for _, l := range standby.Links {
		if !conn.path.route.Path.HasLink(l) {
			link = l
			break
		}
	}
	if link == "" {
		t.Fatal("no standby-only link")
	}
	m, job, err := c.ScheduleMaintenance(link, k.Now().Add(time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil || !m.Finished {
		t.Fatalf("maintenance err=%v finished=%v", job.Err(), m.Finished)
	}
	if conn.State != StateActive || conn.onProtect {
		t.Errorf("state=%v onProtect=%v", conn.State, conn.onProtect)
	}
	if conn.TotalOutage != 0 {
		t.Errorf("working traffic took a hit: %v", conn.TotalOutage)
	}
}
