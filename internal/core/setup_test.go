package core

import (
	"errors"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// logged materialises an audit log, oldest first.
func logged(l *eventLog) []Event {
	out := make([]Event, l.len())
	for i := range out {
		out[i] = l.at(i)
	}
	return out
}

func newTestbed(t *testing.T, seed int64) (*sim.Kernel, *Controller) {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := New(k, topo.Testbed(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

func newBackbone(t *testing.T, seed int64) (*sim.Kernel, *Controller) {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := New(k, topo.Backbone(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

// mustConnect requests a connection and runs the kernel until it is active.
func mustConnect(t *testing.T, k *sim.Kernel, c *Controller, req Request) *Connection {
	t.Helper()
	conn, job, err := c.Connect(req)
	if err != nil {
		t.Fatalf("Connect(%+v): %v", req, err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatalf("setup job: %v", job.Err())
	}
	if conn.State != StateActive {
		t.Fatalf("connection %s state = %v, want active", conn.ID, conn.State)
	}
	return conn
}

func TestConnectWavelengthSetupTime(t *testing.T) {
	k, c := newTestbed(t, 1)
	conn := mustConnect(t, k, c, Request{Customer: "csp1", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})

	if conn.Layer != LayerDWDM {
		t.Errorf("layer = %v", conn.Layer)
	}
	// DC-A home I, DC-C home IV: shortest path is the 1-hop I-IV, and
	// Table 2 says 1-hop establishment lands around 62 s.
	if conn.Route().String() != "I-IV" {
		t.Errorf("route = %s", conn.Route())
	}
	st := conn.SetupTime()
	if st < 55*time.Second || st > 70*time.Second {
		t.Errorf("setup time = %v, want ~62 s", st)
	}
	chs := conn.Channels()
	if len(chs) != 1 {
		t.Fatalf("channels = %v", chs)
	}
	// The spectrum on I-IV must carry the reservation.
	if got := c.Plant().Spectrum("I-IV").Owner(chs[0]); got != string(conn.ID) {
		t.Errorf("spectrum owner = %q", got)
	}
	// One OT allocated at each end.
	if c.Plant().OTs("I").InUse() != 1 || c.Plant().OTs("IV").InUse() != 1 {
		t.Error("OTs not allocated at both ends")
	}
	// FXC client/line pair connected at both ends.
	if len(c.fxcs["I"].Owners()) != 1 || len(c.fxcs["IV"].Owners()) != 1 {
		t.Error("FXC cross-connects missing")
	}
}

func TestSetupTimeGrowsWithHops(t *testing.T) {
	// Force the 3-hop path by failing the others; setup must take longer
	// than the 1-hop case, reproducing Table 2's trend.
	k1, c1 := newTestbed(t, 7)
	conn1 := mustConnect(t, k1, c1, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})

	k3, c3 := newTestbed(t, 7)
	c3.Plant().SetLinkUp("I-IV", false)
	c3.Plant().SetLinkUp("I-III", false)
	conn3 := mustConnect(t, k3, c3, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})

	if conn3.Route().Hops() != 3 {
		t.Fatalf("forced route = %s", conn3.Route())
	}
	if conn3.SetupTime() <= conn1.SetupTime() {
		t.Errorf("3-hop setup (%v) not slower than 1-hop (%v)", conn3.SetupTime(), conn1.SetupTime())
	}
	diff := conn3.SetupTime() - conn1.SetupTime()
	if diff < 4*time.Second || diff > 14*time.Second {
		t.Errorf("hop penalty = %v, want roughly 8.4 s (2 extra hops)", diff)
	}
}

func TestDisconnectReleasesEverything(t *testing.T) {
	k, c := newTestbed(t, 2)
	conn := mustConnect(t, k, c, Request{Customer: "csp1", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})

	job, err := c.Disconnect("csp1", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if conn.State != StateReleased {
		t.Errorf("state = %v", conn.State)
	}
	// Teardown is around 10 seconds (paper §3).
	if job.Elapsed() < 7*time.Second || job.Elapsed() > 14*time.Second {
		t.Errorf("teardown = %v, want ~10 s", job.Elapsed())
	}
	s := c.Snapshot()
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 {
		t.Errorf("leaked resources: %+v", s)
	}
	if len(c.fxcs["I"].Owners()) != 0 || len(c.fxcs["III"].Owners()) != 0 {
		t.Error("FXC ports leaked")
	}
	if c.accessUsed["DC-A"] != 0 || c.accessUsed["DC-B"] != 0 {
		t.Error("access capacity leaked")
	}
	if u := c.ledger.UsageOf("csp1"); u.Connections != 0 || u.Bandwidth != 0 {
		t.Errorf("ledger leaked: %+v", u)
	}
}

func TestDisconnectAuthorization(t *testing.T) {
	k, c := newTestbed(t, 3)
	conn := mustConnect(t, k, c, Request{Customer: "csp1", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if _, err := c.Disconnect("csp2", conn.ID); err == nil {
		t.Error("cross-customer disconnect accepted — isolation broken")
	}
	if _, err := c.Disconnect("csp1", "C9999"); err == nil {
		t.Error("unknown connection disconnect accepted")
	}
	if _, err := c.Disconnect("csp1", conn.ID); err != nil {
		t.Errorf("owner disconnect rejected: %v", err)
	}
	// Double disconnect (already tearing down).
	if _, err := c.Disconnect("csp1", conn.ID); err == nil {
		t.Error("disconnect of tearing-down connection accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	_, c := newTestbed(t, 4)
	cases := []struct {
		name string
		req  Request
	}{
		{"empty customer", Request{From: "DC-A", To: "DC-B", Rate: bw.Rate10G}},
		{"unknown from", Request{Customer: "x", From: "DC-Z", To: "DC-B", Rate: bw.Rate10G}},
		{"unknown to", Request{Customer: "x", From: "DC-A", To: "DC-Z", Rate: bw.Rate10G}},
		{"same site", Request{Customer: "x", From: "DC-A", To: "DC-A", Rate: bw.Rate10G}},
		{"zero rate", Request{Customer: "x", From: "DC-A", To: "DC-B"}},
		{"sub-1G", Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: 500 * bw.Mbps}},
		{"composite rate via Connect", Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: 12 * bw.Gbps}},
		{"shared mesh on wavelength", Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G, Protect: SharedMesh}},
		{"1+1 on OTN", Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G, Protect: OnePlusOne}},
	}
	for _, tc := range cases {
		if _, _, err := c.Connect(tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Nothing may leak from rejected requests.
	if u := c.ledger.UsageOf("x"); u.Connections != 0 || u.Bandwidth != 0 {
		t.Errorf("rejected requests leaked ledger usage: %+v", u)
	}
	if c.accessUsed["DC-A"] != 0 {
		t.Error("rejected requests leaked access capacity")
	}
}

func TestPlaceRate(t *testing.T) {
	cases := []struct {
		rate bw.Rate
		want []bw.Rate
	}{
		{bw.Rate1G, []bw.Rate{bw.Rate1G}},
		{bw.Rate2G5, []bw.Rate{bw.Rate2G5}},
		{5 * bw.Gbps, []bw.Rate{5 * bw.Gbps}},
		{bw.Rate10G, []bw.Rate{bw.Rate10G}},
		{bw.Rate40G, []bw.Rate{bw.Rate40G}},
		// The paper's example: 12G = 10G wavelength + 2x1G OTN.
		{12 * bw.Gbps, []bw.Rate{bw.Rate10G, bw.Rate1G, bw.Rate1G}},
		{25 * bw.Gbps, []bw.Rate{bw.Rate10G, bw.Rate10G, bw.Rate1G, bw.Rate1G, bw.Rate1G, bw.Rate1G, bw.Rate1G}},
		{50 * bw.Gbps, []bw.Rate{bw.Rate40G, bw.Rate10G}},
		{80 * bw.Gbps, []bw.Rate{bw.Rate40G, bw.Rate40G}},
	}
	for _, c := range cases {
		got, err := PlaceRate(c.rate)
		if err != nil {
			t.Errorf("PlaceRate(%v): %v", c.rate, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("PlaceRate(%v) = %v, want %v", c.rate, got, c.want)
			continue
		}
		var sum bw.Rate
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PlaceRate(%v)[%d] = %v, want %v", c.rate, i, got[i], c.want[i])
			}
			sum += got[i]
		}
		if sum < c.rate {
			t.Errorf("PlaceRate(%v) sums to %v < request", c.rate, sum)
		}
	}
	for _, bad := range []bw.Rate{0, -1, 500 * bw.Mbps} {
		if _, err := PlaceRate(bad); err == nil {
			t.Errorf("PlaceRate(%v) accepted", bad)
		}
	}
}

func TestQuotaEnforcedAtConnect(t *testing.T) {
	k, c := newTestbed(t, 5)
	c.ledger.SetQuota("csp1", inventory.Quota{MaxConnections: 1})
	mustConnect(t, k, c, Request{Customer: "csp1", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if _, _, err := c.Connect(Request{Customer: "csp1", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}); !errors.Is(err, inventory.ErrQuota) {
		t.Errorf("second connect err = %v, want quota error", err)
	}
}

func TestAccessPipeExhaustion(t *testing.T) {
	k, c := newTestbed(t, 6)
	// The testbed access pipes are 40G.
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate40G})
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}); err == nil {
		t.Error("connect over a full access pipe accepted")
	}
	// The uninvolved site's pipe is untouched.
	if used := c.accessUsed["DC-C"]; used != 0 {
		t.Errorf("DC-C access used = %v, want 0", used)
	}
	if used := c.accessUsed["DC-A"]; used != bw.Rate40G {
		t.Errorf("DC-A access used = %v, want 40G", used)
	}
}

func TestWavelengthBlockingWhenOTsExhausted(t *testing.T) {
	k := sim.NewKernel(9)
	cfg := Config{}
	cfg.Optics.Channels = 80
	cfg.Optics.ReachKM = 2500
	cfg.Optics.OTsPerNode = 2
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 OTs per node: I can terminate exactly 2 wavelengths.
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G}); err == nil {
		t.Error("connect with exhausted OT pool accepted")
	}
	// Blocking must not leak: everything still consistent.
	s := c.Snapshot()
	if s.OTsInUse != 4 {
		t.Errorf("OTs in use = %d, want 4", s.OTsInUse)
	}
}

func TestConnectOnePlusOneReservesDisjointPair(t *testing.T) {
	k, c := newTestbed(t, 10)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	if conn.protect == nil {
		t.Fatal("no protect leg")
	}
	if !linkDisjoint(conn.path.route.Path, conn.protect.route.Path) {
		t.Errorf("legs not disjoint: %s / %s", conn.path.route.Path, conn.protect.route.Path)
	}
	// 1+1 burns two OT pairs: that is its cost (paper Table 1).
	if got := c.Snapshot().OTsInUse; got != 4 {
		t.Errorf("OTs in use = %d, want 4 for 1+1", got)
	}
}

func TestConnectOnePlusOneImpossible(t *testing.T) {
	k := sim.NewKernel(11)
	// A line topology has no disjoint pair.
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
	if _, _, err := c.Connect(Request{Customer: "x", From: "S1", To: "S2", Rate: bw.Rate10G, Protect: OnePlusOne}); err == nil {
		t.Error("1+1 without a disjoint path accepted")
	}
	// The failed request must leak nothing.
	s := c.Snapshot()
	if s.OTsInUse != 0 || s.ChannelsInUse != 0 {
		t.Errorf("leak after failed 1+1: %+v", s)
	}
}

func TestSameHomePoPRejected(t *testing.T) {
	k := sim.NewKernel(12)
	g := topo.Testbed()
	g.AddSite(topo.Site{ID: "DC-A2", Home: "I", AccessGbps: 40})
	c, err := New(k, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-A2", Rate: bw.Rate10G}); err == nil {
		t.Error("same-home-PoP connection accepted")
	}
}

func TestEventsLog(t *testing.T) {
	k, c := newTestbed(t, 13)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	evs := c.EventsFor(conn.ID)
	if len(evs) < 2 {
		t.Fatalf("events = %d, want request+active", len(evs))
	}
	if evs[0].Kind != "request" || evs[len(evs)-1].Kind != "active" {
		t.Errorf("event kinds = %v", evs)
	}
	if len(logged(&c.events)) < len(evs) {
		t.Error("global log shorter than per-conn log")
	}
}

func TestDeterministicSetupTimes(t *testing.T) {
	run := func() time.Duration {
		k, c := newTestbed(t, 99)
		conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
		return conn.SetupTime()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different setup times: %v vs %v", a, b)
	}
}

func TestConcurrentSetupsQueueOnEMS(t *testing.T) {
	k, c := newTestbed(t, 14)
	// Two simultaneous requests share the single ROADM EMS; the second
	// setup must take longer end-to-end than the first.
	c1, j1, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	c2, j2, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if j1.Err() != nil || j2.Err() != nil {
		t.Fatal(j1.Err(), j2.Err())
	}
	if c2.SetupTime() <= c1.SetupTime() {
		t.Errorf("queued setup (%v) not slower than first (%v)", c2.SetupTime(), c1.SetupTime())
	}
}

func TestBackboneLongHaulUsesRegens(t *testing.T) {
	k := sim.NewKernel(15)
	cfg := Config{}
	cfg.Optics.Channels = 80
	cfg.Optics.ReachKM = 3000
	cfg.Optics.OTsPerNode = 8
	cfg.Optics.RegensPerNode = 4
	c, err := New(k, topo.Backbone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-SEA", To: "DC-NYC", Rate: bw.Rate10G})
	if conn.Route().KM(c.Graph()) > 3000 && len(conn.path.regens) == 0 {
		t.Error("long-haul connection without regens")
	}
	if len(conn.path.regens) == 0 {
		t.Fatalf("expected a regenerated path, got %s (%.0f km)", conn.Route(), conn.Route().KM(c.Graph()))
	}
	if c.Snapshot().RegensInUse != len(conn.path.regens) {
		t.Error("regen accounting mismatch")
	}
	// Teardown returns the regens.
	c.Disconnect("x", conn.ID)
	k.Run()
	if c.Snapshot().RegensInUse != 0 {
		t.Error("regens leaked")
	}
}

// linkDisjoint reports whether p and q share no link.
func linkDisjoint(p, q topo.Path) bool {
	for _, l := range q.Links {
		if p.HasLink(l) {
			return false
		}
	}
	return true
}
