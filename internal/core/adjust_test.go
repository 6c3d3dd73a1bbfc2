package core

import (
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestAdjustCircuitGrow(t *testing.T) {
	k, c := newTestbed(t, 90)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	pipe := conn.pipes[0]
	if pipe.UsedSlots() != 1 {
		t.Fatalf("slots = %d", pipe.UsedSlots())
	}
	job, err := c.AdjustRate("x", conn.ID, bw.Rate2G5)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if conn.Rate != bw.Rate2G5 || conn.slots != 2 {
		t.Errorf("rate=%v slots=%d", conn.Rate, conn.slots)
	}
	if pipe.UsedSlots() != 2 {
		t.Errorf("pipe slots = %d, want 2", pipe.UsedSlots())
	}
	// Growing is hitless.
	if conn.TotalOutage != 0 {
		t.Errorf("grow caused outage %v", conn.TotalOutage)
	}
	// Accounting followed.
	if c.accessUsed["DC-A"] != bw.Rate2G5 {
		t.Errorf("access = %v", c.accessUsed["DC-A"])
	}
	if u := c.ledger.UsageOf("x"); u.Bandwidth != bw.Rate2G5 {
		t.Errorf("ledger = %+v", u)
	}
}

// TestAdjustMovesBandwidthOnly: a rate change moves the customer's ledger
// bandwidth and never its connection count, so a shrunk circuit's teardown
// balances the books, a one-connection quota still lets a circuit grow, and
// the live usage is what a restart recounts from the journal.
func TestAdjustMovesBandwidthOnly(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	k := sim.NewKernel(93)
	c, err := New(k, topo.Testbed(), Config{Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	adjust := func(conn *Connection, rate bw.Rate) {
		t.Helper()
		job, err := c.AdjustRate(conn.Customer, conn.ID, rate)
		if err != nil {
			t.Fatalf("adjust %s to %v: %v", conn.ID, rate, err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}

	shrunk := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate2G5})
	adjust(shrunk, bw.Rate1G)
	if u := c.ledger.UsageOf("x"); u != (inventory.Usage{Connections: 1, Bandwidth: bw.Rate1G}) {
		t.Errorf("usage after shrink = %+v", u)
	}
	if _, err := c.Disconnect("x", shrunk.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if u := c.ledger.UsageOf("x"); u != (inventory.Usage{}) {
		t.Errorf("usage after disconnecting the shrunk circuit = %+v, want zero", u)
	}
	checkInvariants(t, c, 1)

	c.SetQuota("y", inventory.Quota{MaxConnections: 1})
	grown := mustConnect(t, k, c, Request{Customer: "y", From: "DC-A", To: "DC-C", Rate: bw.Rate1G})
	adjust(grown, bw.Rate2G5)
	adjust(grown, bw.Rate1G)
	adjust(grown, bw.Rate2G5)
	checkInvariants(t, c, 2)

	live := []inventory.Usage{c.ledger.UsageOf("x"), c.ledger.UsageOf("y")}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := openJournal(t, dir)
	defer store2.Close()
	c2, err := Rehydrate(sim.NewKernel(94), topo.Testbed(), Config{Journal: store2})
	if err != nil {
		t.Fatal(err)
	}
	for i, cust := range []inventory.Customer{"x", "y"} {
		if got := c2.ledger.UsageOf(cust); got != live[i] {
			t.Errorf("%s: live usage %+v, recounted after restart %+v", cust, live[i], got)
		}
	}
}

func TestAdjustCircuitShrink(t *testing.T) {
	k, c := newTestbed(t, 91)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: 5 * bw.Gbps})
	pipe := conn.pipes[0]
	if pipe.UsedSlots() != 8 { // 5G -> ODU2 -> 8 slots
		t.Fatalf("slots = %d", pipe.UsedSlots())
	}
	job, err := c.AdjustRate("x", conn.ID, bw.Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if pipe.UsedSlots() != 1 {
		t.Errorf("pipe slots after shrink = %d", pipe.UsedSlots())
	}
	if c.accessUsed["DC-A"] != bw.Rate1G {
		t.Errorf("access = %v", c.accessUsed["DC-A"])
	}
	// Freed slots are usable by someone else immediately (2.5G = 2 slots
	// fits the 7 now free).
	conn2 := mustConnect(t, k, c, Request{Customer: "y", From: "DC-A", To: "DC-B", Rate: bw.Rate2G5})
	if conn2.pipes[0] != pipe {
		t.Error("new circuit did not groom into the freed slots")
	}
}

func TestAdjustCircuitGrowBlockedByFullPipe(t *testing.T) {
	k, c := newTestbed(t, 92)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	// Fill the rest of the pipe.
	hog := mustConnect(t, k, c, Request{Customer: "y", From: "DC-A", To: "DC-B", Rate: 5 * bw.Gbps})
	_ = hog
	pipe := conn.pipes[0]
	free := pipe.FreeSlots()
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate10G); err == nil {
		t.Fatal("grow beyond pipe capacity accepted")
	}
	// Nothing changed.
	if conn.Rate != bw.Rate1G || pipe.FreeSlots() != free {
		t.Errorf("failed grow mutated state: rate=%v free=%d", conn.Rate, pipe.FreeSlots())
	}
	if c.accessUsed["DC-A"] != bw.Rate1G+5*bw.Gbps {
		t.Errorf("access leaked: %v", c.accessUsed["DC-A"])
	}
}

func TestAdjustWavelengthRetune(t *testing.T) {
	k, c := newTestbed(t, 93)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	// Best-fit allocation gave this 10G request 10G OTs, which cannot
	// carry 40G.
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate40G); err == nil {
		t.Fatal("40G on 10G transponders accepted")
	}

	// A 40G connection CAN drop to 10G (transponders support both).
	k, c = newTestbed(t, 193)
	conn40 := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate40G})
	job, err := c.AdjustRate("x", conn40.ID, bw.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if conn40.Rate != bw.Rate10G {
		t.Errorf("rate = %v", conn40.Rate)
	}
	// Re-framing caused only a brief hit.
	if conn40.TotalOutage == 0 || conn40.TotalOutage > 200*time.Millisecond {
		t.Errorf("retune hit = %v", conn40.TotalOutage)
	}
	// And back up to 40G works on these transponders.
	job, err = c.AdjustRate("x", conn40.ID, bw.Rate40G)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil || conn40.Rate != bw.Rate40G {
		t.Errorf("re-grow failed: %v rate=%v", job.Err(), conn40.Rate)
	}
}

func TestAdjustValidation(t *testing.T) {
	k, c := newTestbed(t, 94)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if _, err := c.AdjustRate("y", conn.ID, bw.Rate2G5); err == nil {
		t.Error("cross-customer adjust accepted")
	}
	if _, err := c.AdjustRate("x", "C9999", bw.Rate2G5); err == nil {
		t.Error("unknown connection accepted")
	}
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate10G); err == nil {
		t.Error("OTN->DWDM boundary crossing accepted")
	}
	if _, err := c.AdjustRate("x", conn.ID, 12*bw.Gbps); err == nil {
		t.Error("composite target accepted")
	}
	if _, err := c.AdjustRate("x", conn.ID, 500*bw.Mbps); err == nil {
		t.Error("sub-1G target accepted")
	}
	// No-op adjust succeeds trivially.
	job, err := c.AdjustRate("x", conn.ID, bw.Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Error(job.Err())
	}
	// Down connections cannot be adjusted.
	wave := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: Unprotected})
	c.CutFiber(wave.Route().Links[0])
	if _, err := c.AdjustRate("x", wave.ID, bw.Rate10G); err == nil {
		t.Error("adjust of a down connection accepted")
	}
	k.Run()
}

func TestAdjustAccessPipeLimit(t *testing.T) {
	k := sim.NewKernel(95)
	// A site with a tiny 2G access pipe.
	g := topo.Testbed()
	g.AddSite(topo.Site{ID: "DC-TINY", Home: "III", AccessGbps: 2})
	c, err := New(k, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-TINY", To: "DC-C", Rate: bw.Rate1G})
	// Growing to 2.5G exceeds the 2G access pipe.
	if _, err := c.AdjustRate("x", conn.ID, bw.Rate2G5); err == nil {
		t.Error("grow beyond access pipe accepted")
	}
	if conn.Rate != bw.Rate1G || c.accessUsed["DC-TINY"] != bw.Rate1G {
		t.Errorf("failed grow mutated state: rate=%v access=%v", conn.Rate, c.accessUsed["DC-TINY"])
	}
}

func TestAdjustResizesSharedBackup(t *testing.T) {
	k, c := newTestbed(t, 96)
	// Pipe triangle for a disjoint backup.
	for _, pair := range [][2]topo.NodeID{{"I", "III"}, {"III", "IV"}, {"I", "IV"}} {
		job, err := c.EnsurePipe(pair[0], pair[1], 2) // otn.ODU2
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
		t.Fatal("no backup")
	}
	job, err := c.AdjustRate("x", conn.ID, bw.Rate2G5)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	// Activating the backup (as restoration would) takes the resized demand.
	for _, p := range conn.backup {
		if slots, err := p.Activate(string(conn.ID)); err != nil || len(slots) != 2 {
			t.Errorf("backup activates %d slots (%v), want 2 after resize", len(slots), err)
		}
	}
}

func TestRateDependentReach(t *testing.T) {
	k := sim.NewKernel(97)
	cfg := Config{}
	cfg.Optics.Channels = 80
	cfg.Optics.ReachKM = 2500
	cfg.Optics.OTsPerNode = 8
	cfg.Optics.RegensPerNode = 2
	cfg.Optics.ReachByRate = map[bw.Rate]float64{bw.Rate40G: 300}
	// Testbed with roomy access pipes so both connections fit.
	src := topo.Testbed()
	g := topo.New()
	for _, n := range src.Nodes() {
		g.AddNode(*n)
	}
	for _, l := range src.Links() {
		g.AddLink(*l)
	}
	for _, s := range src.Sites() {
		site := *s
		site.AccessGbps = 100
		g.AddSite(site)
	}
	c, err := New(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10G: full reach, takes the 1-hop 320 km path transparently.
	c10 := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if c10.Route().Hops() != 1 || len(c10.path.regens) != 0 {
		t.Errorf("10G: route %s regens %d", c10.Route(), len(c10.path.regens))
	}
	// 40G: 300 km reach cannot cross I-IV (320 km) or I-III (310 km)
	// transparently; the controller must take I-II-III-IV with regens.
	c40 := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate40G})
	if c40.Route().String() != "I-II-III-IV" {
		t.Errorf("40G route = %s, want the regenerable 3-hop path", c40.Route())
	}
	if len(c40.path.regens) != 2 {
		t.Errorf("40G regens = %d, want 2 (at II and III)", len(c40.path.regens))
	}
	// The 40G setup costs more (regen configuration steps).
	if c40.SetupTime() <= c10.SetupTime() {
		t.Errorf("40G setup %v not slower than 10G %v", c40.SetupTime(), c10.SetupTime())
	}
	// Upgrading the 10G connection in place to 40G must be refused: its
	// 320 km transparent segment exceeds the 40G reach.
	if _, err := c.AdjustRate("x", c10.ID, bw.Rate40G); err == nil {
		t.Error("40G adjust over a segment beyond 40G reach accepted")
	}
}
