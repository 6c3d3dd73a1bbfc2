package griphon_test

// Integration tests: long multi-customer scenarios across the whole stack —
// controller, photonic plant, ROADM layer, OTN overlay, EMSes, failures,
// maintenance — with resource-conservation invariants checked at every
// phase. These are the tests that catch cross-module accounting bugs no unit
// test sees.

import (
	"fmt"
	"testing"
	"time"

	"griphon"
	"griphon/internal/topo"
)

// checkConservation asserts the global accounting invariants: spectrum,
// transponders, regens, OTN slots, FXC ports, ROADM terminations, access
// pipes and ledger claims all reconcile with the set of live connections
// (AuditInvariants), and the customers' working wavelengths hold at least
// their channels and transponders.
func checkConservation(t *testing.T, net *griphon.Network, phase string, customers ...string) {
	t.Helper()
	for _, f := range net.AuditInvariants() {
		t.Errorf("%s: audit: %s", phase, f)
	}
	type expect struct {
		channelLinks int
		ots          int
	}
	var want expect
	for _, cust := range customers {
		for _, conn := range net.Connections(cust) {
			switch conn.State.String() {
			case "released":
				continue
			case "pending", "active", "down", "restoring", "tearing-down":
			default:
				t.Fatalf("%s: unknown state %v", phase, conn.State)
			}
			if conn.Layer.String() != "dwdm" {
				continue
			}
			// Working leg contributions; protect legs and carrier pipes
			// only add to the totals, so the bound is from below.
			want.channelLinks += len(conn.Route().Links)
			want.ots += 2
		}
	}

	s := net.Stats()
	if s.ChannelsInUse < want.channelLinks {
		t.Errorf("%s: channel-links %d < working demand %d", phase, s.ChannelsInUse, want.channelLinks)
	}
	if s.OTsInUse < want.ots {
		t.Errorf("%s: OTs %d < working demand %d", phase, s.OTsInUse, want.ots)
	}
}

// checkEmpty asserts a fully drained network holds nothing at all: no live
// connection and no pooled resource in use, so by the audit no ROADM, FXC,
// access-pipe or ledger state either.
func checkEmpty(t *testing.T, net *griphon.Network, phase string) {
	t.Helper()
	s := net.Stats()
	if s.Active != 0 || s.Pending != 0 || s.Down != 0 || s.Restoring != 0 {
		t.Errorf("%s: live connections remain: %+v", phase, s)
	}
	if s.ChannelsInUse != 0 || s.OTsInUse != 0 || s.RegensInUse != 0 || s.SlotsInUse != 0 {
		t.Errorf("%s: resources leaked: %+v", phase, s)
	}
	for _, f := range net.AuditInvariants() {
		t.Errorf("%s: audit: %s", phase, f)
	}
}

func TestIntegrationMonthOfChurn(t *testing.T) {
	net, err := griphon.New(griphon.Backbone(), griphon.WithSeed(1001), griphon.WithAutoRepair())
	if err != nil {
		t.Fatal(err)
	}
	sh := net.ShardSet().Shard(0)
	rng := sh.Kernel.Rand()
	sites := []string{"DC-SEA", "DC-PAO", "DC-HOU", "DC-CHI", "DC-NYC", "DC-ATL"}
	customers := []string{"acme", "initech", "globex"}
	rates := []griphon.Rate{griphon.Rate1G, griphon.Rate2G5, griphon.Rate10G}

	var live []*griphon.Connection
	connects, blocks := 0, 0

	for day := 0; day < 30; day++ {
		// A few connects per day.
		for i := 0; i < 3; i++ {
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				continue
			}
			cust := customers[rng.Intn(len(customers))]
			rate := rates[rng.Intn(len(rates))]
			conn, err := net.Connect(cust, a, b, rate)
			if err != nil {
				blocks++
				continue
			}
			connects++
			live = append(live, conn)
		}
		// Some disconnects.
		for len(live) > 12 {
			conn := live[0]
			live = live[1:]
			if conn.State.String() != "active" && conn.State.String() != "down" {
				continue
			}
			if err := net.Disconnect(string(conn.Customer), conn.ID); err != nil {
				t.Fatalf("day %d disconnect %s: %v", day, conn.ID, err)
			}
		}
		// Occasional fiber cut (auto-repaired hours later).
		if day%7 == 3 {
			links := net.Graph().Links()
			link := links[rng.Intn(len(links))]
			if sh.Ctrl.Plant().LinkUp(link.ID) {
				if err := net.CutFiber(string(link.ID)); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.Advance(24 * time.Hour)
		checkConservation(t, net, fmt.Sprintf("day %d", day), customers...)
	}
	if connects < 30 {
		t.Errorf("only %d connects in a month (blocked %d)", connects, blocks)
	}

	// Drain: disconnect everything, reclaim pipes, expect a clean plant.
	net.Drain()
	for _, conn := range live {
		st := conn.State.String()
		if st == "active" || st == "down" {
			if err := net.Disconnect(string(conn.Customer), conn.ID); err != nil {
				t.Fatalf("final disconnect %s (%s): %v", conn.ID, st, err)
			}
		}
	}
	if _, err := net.ReclaimIdlePipes(); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	checkEmpty(t, net, "after drain")
}

func TestIntegrationFailureStorm(t *testing.T) {
	net, err := griphon.New(griphon.Backbone(), griphon.WithSeed(1002),
		griphon.WithRegensPerNode(6), griphon.WithOTsPerNode(12))
	if err != nil {
		t.Fatal(err)
	}
	// Six protected wavelengths across the backbone.
	var conns []*griphon.Connection
	pairs := [][2]string{
		{"DC-SEA", "DC-NYC"}, {"DC-SEA", "DC-ATL"}, {"DC-PAO", "DC-CHI"},
		{"DC-HOU", "DC-NYC"}, {"DC-CHI", "DC-ATL"}, {"DC-PAO", "DC-NYC"},
	}
	for _, p := range pairs {
		conn, err := net.Connect("acme", p[0], p[1], griphon.Rate10G)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		conns = append(conns, conn)
	}

	// Cut three distinct links in quick succession (a conduit cut).
	cut := []string{"SEA-CHI", "CHI-ANN", "NYC-DCX"}
	for _, l := range cut {
		if err := net.CutFiber(l); err != nil {
			t.Fatal(err)
		}
		net.Advance(10 * time.Second)
	}
	net.Drain()

	// Every connection must end up active (restored or untouched) since
	// the mesh remains connected.
	for _, conn := range conns {
		if conn.State.String() != "active" {
			t.Errorf("conn %s %s->%s is %v after storm", conn.ID, conn.From, conn.To, conn.State)
		}
		for _, l := range cut {
			if conn.Route().HasLink(topo.LinkID(l)) {
				t.Errorf("conn %s still routed over cut link %s", conn.ID, l)
			}
		}
	}
	// Repair everything; network stays consistent.
	for _, l := range cut {
		if err := net.RepairFiber(l); err != nil {
			t.Fatal(err)
		}
	}
	net.Drain()
	checkConservation(t, net, "after repairs", "acme")
}

func TestIntegrationMixedLayersUnderMaintenance(t *testing.T) {
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(1003))
	if err != nil {
		t.Fatal(err)
	}
	// A composite 12G plus an extra OTN circuit from another customer.
	if _, err := net.Connect("acme", "DC-A", "DC-B", 12*griphon.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Connect("initech", "DC-A", "DC-B", griphon.Rate2G5); err != nil {
		t.Fatal(err)
	}

	// Maintenance on the link carrying most of it.
	acme := net.Connections("acme")
	var wavelength *griphon.Connection
	for _, c := range acme {
		if c.Layer.String() == "dwdm" {
			wavelength = c
		}
	}
	if wavelength == nil {
		t.Fatal("no wavelength component")
	}
	link := string(wavelength.Route().Links[0])
	m, err := net.ScheduleMaintenance(link, 30*time.Minute, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	net.Drain()
	if !m.Finished {
		t.Fatal("maintenance unfinished")
	}
	// The wavelength must have been rolled; OTN circuits ride pipes that
	// may or may not touch the link — either way everything is active.
	for _, cust := range []string{"acme", "initech"} {
		for _, c := range net.Connections(cust) {
			if c.State.String() != "active" {
				t.Errorf("%s conn %s is %v after maintenance", cust, c.ID, c.State)
			}
		}
	}
	checkConservation(t, net, "after maintenance", "acme", "initech")

	// Full teardown leaves a clean network.
	for _, cust := range []string{"acme", "initech"} {
		for _, c := range net.Connections(cust) {
			if err := net.Disconnect(cust, c.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := net.ReclaimIdlePipes(); err != nil {
		t.Fatal(err)
	}
	net.Drain()
	checkEmpty(t, net, "after teardown")
}

func TestIntegrationDeterministicReplay(t *testing.T) {
	run := func() string {
		net, err := griphon.New(griphon.Backbone(), griphon.WithSeed(777), griphon.WithAutoRepair())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range [][2]string{{"DC-SEA", "DC-NYC"}, {"DC-HOU", "DC-CHI"}} {
			if _, err := net.Connect("acme", p[0], p[1], griphon.Rate10G); err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
		}
		net.CutFiber("SEA-CHI") //lint:allow errcheck exists
		net.Drain()
		var sig string
		for _, e := range net.Events() {
			sig += e.String() + "\n"
		}
		return sig
	}
	if a, b := run(), run(); a != b {
		t.Error("identical seeds produced different event logs")
	}
}
