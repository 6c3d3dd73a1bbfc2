package core

import (
	"errors"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestScheduleConnectWindow(t *testing.T) {
	k, c := newTestbed(t, 80)
	at := k.Now().Add(10 * time.Hour)
	b, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G,
	}, at, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is provisioned before the window.
	k.RunUntil(at.Add(-time.Minute))
	if len(b.Conns) != 0 {
		t.Fatal("booking provisioned early")
	}
	if got := c.Snapshot().Active; got != 0 {
		t.Fatalf("active before window = %d", got)
	}
	// Inside the window it is up.
	k.RunUntil(at.Add(time.Hour))
	if len(b.Conns) != 1 || b.Conns[0].State != StateActive {
		t.Fatalf("booking not active inside window: %+v", b.Conns)
	}
	// After the hold it is gone and everything is released.
	k.Run()
	if !b.Done.Done() || b.Done.Err() != nil {
		t.Fatalf("booking done=%v err=%v", b.Done.Done(), b.Done.Err())
	}
	if b.Conns[0].State != StateReleased {
		t.Errorf("state after window = %v", b.Conns[0].State)
	}
	s := c.Snapshot()
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 {
		t.Errorf("booking leaked: %+v", s)
	}
	// The hold ran from activation, roughly 6 h of uptime.
	up := b.Conns[0].ReleasedAt.Sub(b.Conns[0].ActiveAt)
	if up < 6*time.Hour || up > 6*time.Hour+time.Minute {
		t.Errorf("uptime = %v, want ~6 h", up)
	}
}

func TestScheduleConnectComposite(t *testing.T) {
	k, c := newTestbed(t, 81)
	b, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-B", Rate: 12 * bw.Gbps,
	}, k.Now().Add(time.Hour), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if b.Done.Err() != nil {
		t.Fatal(b.Done.Err())
	}
	if len(b.Conns) != 3 {
		t.Errorf("components = %d", len(b.Conns))
	}
	// Customer resources are gone; only the carrier's groomable pipe (one
	// wavelength + its OTs) deliberately survives for future circuits.
	s := c.Snapshot()
	if s.SlotsInUse != 0 {
		t.Errorf("ODU slots leaked: %+v", s)
	}
	if s.Pipes != 1 || s.InternalConns != 1 {
		t.Errorf("pipe should survive the booking: %+v", s)
	}
	// Reclaiming idle pipes returns the wavelength too.
	job, n := c.ReclaimIdlePipes()
	if n != 1 {
		t.Fatalf("reclaimed %d pipes, want 1", n)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	s = c.Snapshot()
	if s.Pipes != 0 || s.ChannelsInUse != 0 || s.OTsInUse != 0 {
		t.Errorf("reclaim incomplete: %+v", s)
	}
}

func TestScheduleConnectValidation(t *testing.T) {
	k, c := newTestbed(t, 82)
	good := Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}
	if _, err := c.ScheduleConnect(Request{From: "DC-A", To: "DC-C", Rate: bw.Rate10G}, k.Now().Add(time.Hour), time.Hour); err == nil {
		t.Error("empty customer accepted")
	}
	bad := good
	bad.Rate = 500 * bw.Mbps
	if _, err := c.ScheduleConnect(bad, k.Now().Add(time.Hour), time.Hour); err == nil {
		t.Error("sub-1G booking accepted")
	}
	bad = good
	bad.From = "DC-Z"
	if _, err := c.ScheduleConnect(bad, k.Now().Add(time.Hour), time.Hour); err == nil {
		t.Error("unknown site accepted")
	}
	k.RunFor(time.Hour)
	if _, err := c.ScheduleConnect(good, sim.Time(0), time.Hour); err == nil {
		t.Error("past booking accepted")
	}
	if _, err := c.ScheduleConnect(good, k.Now().Add(time.Hour), 0); err == nil {
		t.Error("zero hold accepted")
	}
}

func TestScheduleConnectBlockedWindow(t *testing.T) {
	k := sim.NewKernel(83)
	cfg := Config{}
	cfg.Optics.Channels = 80
	cfg.Optics.ReachKM = 2500
	cfg.Optics.OTsPerNode = 2
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy all OTs at I before the window opens.
	mustConnect(t, k, c, Request{Customer: "hog", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	mustConnect(t, k, c, Request{Customer: "hog", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})

	b, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G,
	}, k.Now().Add(time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if b.SetupErr == nil || b.Done.Err() == nil {
		t.Error("blocked booking reported success")
	}
}

// TestNoAutoRevertByDefault: a repair revives a restored connection where it
// is; moving it back to its best path is Regroom's, on request.
func TestNoAutoRevertByDefault(t *testing.T) {
	k, c := newTestbed(t, 85)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	c.CutFiber("I-IV")
	k.Run()
	restored := conn.Route().String()
	c.RepairFiber("I-IV")
	k.Run()
	if conn.Route().String() != restored {
		t.Errorf("route moved on repair: %s -> %s", restored, conn.Route())
	}
}

func TestEMSFailureUnwindsSetup(t *testing.T) {
	k, c := newTestbed(t, 86)
	boom := errors.New("vendor EMS timeout")
	c.roadmEMS.InjectFailures(1, boom)
	conn, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("setup succeeded despite EMS failure")
	}
	if conn.State != StateReleased {
		t.Errorf("state = %v, want released", conn.State)
	}
	s := c.Snapshot()
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 {
		t.Errorf("EMS failure leaked resources: %+v", s)
	}
	if c.accessUsed["DC-A"] != 0 {
		t.Error("access leaked")
	}
	if u := c.ledger.UsageOf("x"); u.Connections != 0 {
		t.Errorf("ledger leaked: %+v", u)
	}
	// ROADM layer clean too.
	total := 0
	for _, n := range c.Graph().Nodes() {
		total += c.roadms.Node(n.ID).AddDropUsed()
	}
	if total != 0 {
		t.Errorf("ROADM state leaked: %d terminations", total)
	}
	// The next attempt (no injection) succeeds.
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
}

func TestEMSFailureDuringRestorationLeavesConnDown(t *testing.T) {
	k, c := newTestbed(t, 87)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	// Fail the restoration's EMS batch.
	c.CutFiber(conn.Route().Links[0])
	c.roadmEMS.InjectFailures(20, errors.New("EMS down"))
	k.Run()
	if conn.State != StateDown {
		t.Fatalf("state = %v, want down after failed restoration", conn.State)
	}
	// Repair revives it on the original path.
	c.roadmEMS.InjectFailures(0, nil)
	c.RepairFiber(conn.Route().Links[0])
	k.Run()
	if conn.State != StateActive {
		t.Errorf("state after repair = %v", conn.State)
	}
}
