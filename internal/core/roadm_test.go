package core

import (
	"strings"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/optics"
	"griphon/internal/roadm"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestROADMStateTracksLightpaths(t *testing.T) {
	k, c := newTestbed(t, 70)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	// DC-A home I, DC-B home III: route I-III (1 hop): terminations at
	// both ends, no expresses.
	if got := c.roadms.Node("I").AddDropUsed(); got != 1 {
		t.Errorf("I add/drop used = %d", got)
	}
	if got := c.roadms.Node("III").AddDropUsed(); got != 1 {
		t.Errorf("III add/drop used = %d", got)
	}
	ch := conn.Channels()[0]
	link := conn.Route().Links[0]
	if !terminatedAt(c.roadms.Node("I"), ch, link) {
		t.Error("no termination owner at I")
	}
	c.Disconnect("x", conn.ID)
	k.Run()
	if c.roadms.Node("I").AddDropUsed() != 0 || c.roadms.Node("III").AddDropUsed() != 0 {
		t.Error("ROADM state leaked after disconnect")
	}
}

func TestROADMExpressOnMultiHop(t *testing.T) {
	k, c := newTestbed(t, 71)
	c.Plant().SetLinkUp("I-IV", false)
	c.Plant().SetLinkUp("I-III", false)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Route().String() != "I-II-III-IV" {
		t.Fatalf("route = %s", conn.Route())
	}
	ch := conn.Channels()[0]
	if !expressedAt(c.roadms.Node("II"), ch, "I-II", "II-III") {
		t.Error("no express at II")
	}
	if !expressedAt(c.roadms.Node("III"), ch, "II-III", "III-IV") {
		t.Error("no express at III")
	}
	if c.roadms.Node("II").AddDropUsed() != 0 {
		t.Error("express consumed add/drop at II")
	}
}

func TestAddDropExhaustionBlocks(t *testing.T) {
	k := sim.NewKernel(72)
	cfg := Config{AddDropPorts: 1}
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	// A second wavelength terminating at I needs a second add/drop port.
	if _, _, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}); err == nil {
		t.Error("connect beyond the add/drop bank accepted")
	}
	// Failure must not leak partial ROADM state.
	if used := c.roadms.Node("I").AddDropUsed(); used != 1 {
		t.Errorf("I add/drop used = %d after blocked request", used)
	}
	s := c.Snapshot()
	if s.OTsInUse != 2 {
		t.Errorf("OTs in use = %d, want 2 (only the first connection)", s.OTsInUse)
	}
}

func TestRegenUsesTwoSegmentTerminations(t *testing.T) {
	k := sim.NewKernel(73)
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
	if len(conn.path.regens) == 0 {
		t.Skip("no regens on this route")
	}
	rn := conn.path.regens[0].Node
	// The regen node terminates both adjacent segments: two ports.
	if got := c.roadms.Node(rn).AddDropUsed(); got != 2 {
		t.Errorf("regen node %s add/drop used = %d, want 2", rn, got)
	}
	c.Disconnect("x", conn.ID)
	k.Run()
	if got := c.roadms.Node(rn).AddDropUsed(); got != 0 {
		t.Errorf("regen node state leaked: %d", got)
	}
}

func TestBridgeAndRollReleasesOldROADMState(t *testing.T) {
	k, c := newTestbed(t, 74)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	oldRoute := conn.Route()
	job, err := c.BridgeAndRoll("x", conn.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	// Total add/drop usage across the layer: exactly 2 (the two ends of
	// the one live path).
	total := 0
	for _, n := range c.Graph().Nodes() {
		total += c.roadms.Node(n.ID).AddDropUsed()
	}
	if total != 2 {
		t.Errorf("layer-wide add/drop used = %d, want 2 after roll off %s", total, oldRoute)
	}
}

// terminatedAt reports whether n terminates ch on deg: a second termination
// of it is refused as one. A probe that succeeds leaves state behind, so call
// it where the test ends on a false result.
func terminatedAt(n *roadm.Node, ch optics.Channel, deg topo.LinkID) bool {
	err := n.Terminate(ch, deg, "probe")
	return err != nil && strings.Contains(err.Error(), "already terminated")
}

// expressedAt reports whether n expresses ch between degrees a and b, the
// way terminatedAt probes a termination.
func expressedAt(n *roadm.Node, ch optics.Channel, a, b topo.LinkID) bool {
	err := n.Express(ch, a, b, "probe")
	return err != nil && strings.Contains(err.Error(), "already expressed")
}
