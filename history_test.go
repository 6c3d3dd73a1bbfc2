package griphon

import (
	"fmt"
	"runtime"
	"testing"
)

// historyCycles is the amount of history the budget is sized against: what the
// churn-groomed benchmark workload accumulates before its op cap.
const historyCycles = 6000

// churn runs n 1G connect/disconnect cycles on net, spread over the given
// number of tenants and every chained backbone site pair.
func churn(t testing.TB, net *Network, sites []string, tenants, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cust := fmt.Sprintf("tenant-%03d", i%tenants)
		from, to := sites[i%(len(sites)-1)], sites[i%(len(sites)-1)+1]
		conn, err := net.Connect(cust, from, to, Rate1G)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := net.Disconnect(cust, conn.ID); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
}

// TestHistoryBytesPerCycle bounds what one released connection costs to keep:
// its record, its audit-log entries, its SLA row and its index slots. Every
// allocation on this path has a deterministic size, so the figure repeats
// exactly run to run.
func TestHistoryBytesPerCycle(t *testing.T) {
	const budget = 700 // bytes of retained heap per connect/disconnect cycle
	topo := Backbone()
	net, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	sites := topo.Sites()
	// Prime: light the overlay pipes and fill every lazily sized table, so the
	// measured window holds nothing but history.
	churn(t, net, sites, 64, 200)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	churn(t, net, sites, 64, historyCycles)
	runtime.GC()
	runtime.ReadMemStats(&after)

	per := float64(after.HeapAlloc-before.HeapAlloc) / historyCycles
	t.Logf("%.0f B of heap retained per cycle (budget %d)", per, budget)
	if per > budget {
		t.Errorf("a released connection retains %.0f B, budget %d B", per, budget)
	}
	if got := net.Stats().Released; got < historyCycles {
		t.Fatalf("history dropped: %d released connections listed after %d cycles", got, historyCycles)
	}
	runtime.KeepAlive(net)
}

// TestRequestAllocsIndependentOfHistory: listing, billing and reporting one
// customer reads that customer's connections only, so each costs the same
// number of allocations with 100 and with 10 000 released connections of
// other customers behind it — nothing for the listing (a view of the index) or
// the bill, and the report's rows.
func TestRequestAllocsIndependentOfHistory(t *testing.T) {
	measure := func(others int) (list, bill, sla float64) {
		topo := Backbone()
		net, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		sites := topo.Sites()
		churn(t, net, sites, 64, others)
		for i := 0; i < 5; i++ {
			conn, err := net.Connect("acme", sites[0], sites[1], Rate1G)
			if err != nil {
				t.Fatal(err)
			}
			if i < 3 {
				if err := net.Disconnect("acme", conn.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := len(net.Connections("acme")); got != 5 {
			t.Fatalf("acme lists %d connections, want 5", got)
		}
		list = testing.AllocsPerRun(20, func() { net.Connections("acme") })
		bill = testing.AllocsPerRun(20, func() { net.BillGbHours("acme") })
		sla = testing.AllocsPerRun(20, func() { net.SLA("acme") })
		return list, bill, sla
	}
	list1, bill1, sla1 := measure(100)
	list2, bill2, sla2 := measure(10000)
	t.Logf("allocations per call: list %v, bill %v, SLA report %v", list2, bill2, sla2)
	if list1 != list2 || bill1 != bill2 || sla1 != sla2 {
		t.Errorf("allocations grew with other customers' history: list %v -> %v, bill %v -> %v, SLA %v -> %v",
			list1, list2, bill1, bill2, sla1, sla2)
	}
	if list2 > 0 || bill2 > 0 || sla2 > 4 {
		t.Errorf("allocations per call: list %v (gate 0), bill %v (gate 0), SLA report %v (gate 4)", list2, bill2, sla2)
	}
}

// TestConnectAllReturnsEveryComponent: Connect answers with the first
// component of a composite service, ConnectAll with all of them.
func TestConnectAllReturnsEveryComponent(t *testing.T) {
	n := newNet(t)
	conns, err := n.ConnectAll("acme", "DC-A", "DC-B", 12*Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 3 || conns[0].Rate != Rate10G || conns[1].Rate != Rate1G || conns[2].Rate != Rate1G {
		t.Fatalf("12G components = %v", conns)
	}
	if listed := n.Connections("acme"); len(listed) != 3 {
		t.Errorf("listing holds %d connections, want the 3 components", len(listed))
	}
	one, err := n.Connect("bob", "DC-A", "DC-C", Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	if listed := n.Connections("bob"); len(listed) != 1 || listed[0] != one {
		t.Errorf("Connect returned %v, listing holds %v", one, listed)
	}
}
