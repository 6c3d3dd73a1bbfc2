package griphon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestFaultVisibilityFacade exercises the customer fault-visibility surface
// end to end: alarm stream, SLA ledger and flight recorder through the
// public API.
func TestFaultVisibilityFacade(t *testing.T) {
	n := newNet(t, WithSeed(44), WithTracing(), WithFlightRecorder(64))
	conn, err := n.Connect("acme", "DC-A", "DC-C", Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	evs, cursor := n.EventsSince(0)
	if len(evs) == 0 {
		t.Fatal("no events after connect")
	}
	if err := n.CutFiber(string(conn.Route().Links[0])); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	n.Advance(time.Hour)

	groups, next := n.Alarms(0, "acme")
	if len(groups) != 1 || groups[0].Kind.String() != "fiber-cut" {
		t.Fatalf("alarm groups = %+v", groups)
	}
	if again, _ := n.Alarms(next, "acme"); len(again) != 0 {
		t.Errorf("cursor replayed %d groups", len(again))
	}
	if more, _ := n.EventsSince(cursor); len(more) == 0 {
		t.Error("no new events after the cut")
	}

	rep := n.SLA("acme")
	if len(rep.Conns) != 1 || rep.Unattributed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Availability <= 0 || rep.Availability >= 1 {
		t.Errorf("availability = %v", rep.Availability)
	}
	if rep.Conns[0].Outages[0].Cause.String() != "fiber-cut" {
		t.Errorf("cause = %v", rep.Conns[0].Outages[0].Cause)
	}

	dumps := n.DumpFlight("facade-test", []string{"demo"})
	if len(dumps) != 1 {
		t.Fatalf("%d flight dumps from one shard with WithFlightRecorder, want 1", len(dumps))
	}
	var buf bytes.Buffer
	if err := dumps[0].WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if round["reason"] != "facade-test" {
		t.Errorf("dump reason = %v", round["reason"])
	}

	// Without the option there is no recorder.
	n2 := newNet(t, WithSeed(45))
	if dumps := n2.DumpFlight("x", nil); dumps != nil {
		t.Error("flight recorder present without WithFlightRecorder")
	}

	// Sharded: one dump per shard, each holding its own shard's history and
	// nothing of its neighbour's.
	t.Run("shards=2", func(t *testing.T) {
		n := newNet(t, WithSeed(44), WithShards(2), WithFlightRecorder(64))
		for shard, cust := range customersOnShards(t, n, 2) {
			if _, err := n.Connect(cust, "DC-A", "DC-C", Rate10G); err != nil {
				t.Fatalf("shard %d: %v", shard, err)
			}
		}
		dumps := n.DumpFlight("sharded", nil)
		if len(dumps) != 2 {
			t.Fatalf("%d flight dumps from two shards, want 2", len(dumps))
		}
		for shard, d := range dumps {
			own, other := fmt.Sprintf("S%d.C0000", shard), fmt.Sprintf("S%d.C0000", 1-shard)
			if len(d.Commits) == 0 {
				t.Errorf("dump %d holds no commits", shard)
			}
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(own)) || bytes.Contains(buf.Bytes(), []byte(other)) {
				t.Errorf("dump %d: want %s in it and %s not:\n%s", shard, own, other, buf.Bytes())
			}
		}
	})
}

// customersOnShards returns one customer name per shard of n, element i
// owned by shard i, found by probing the placement hash.
func customersOnShards(t *testing.T, n *Network, shards int) []string {
	t.Helper()
	out := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		if i > 10000 {
			t.Fatal("could not find a customer for every shard")
		}
		cust := fmt.Sprintf("tenant-%d", i)
		if sh := n.ShardFor(cust); out[sh] == "" {
			out[sh] = cust
			found++
		}
	}
	return out
}
