package api

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"griphon"
)

// cutAndRestore provisions a 10G restore-mode connection for cust, cuts its
// working fiber and drains the restoration.
func cutAndRestore(t *testing.T, c *Client, net *griphon.Network, cust string) ConnectionJSON {
	t.Helper()
	resp, err := c.Connect(ConnectRequest{Customer: cust, From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	conn := resp.Connections[0]
	if err := c.Cut(strings.Split(conn.Route, " ")[0]); err != nil && !strings.Contains(err.Error(), "already down") {
		t.Fatal(err)
	}
	net.Drain()
	return conn
}

func TestSLAEndpoint(t *testing.T) {
	c, net := newTestServer(t)
	conn := cutAndRestore(t, c, net, "acme")
	if err := c.Advance("1h"); err != nil {
		t.Fatal(err)
	}

	rep, err := c.SLA("acme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Customer != "acme" || len(rep.Conns) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	row := rep.Conns[0]
	if row.ID != conn.ID {
		t.Errorf("row id = %s, want %s", row.ID, conn.ID)
	}
	if row.Availability <= 0 || row.Availability >= 1 {
		t.Errorf("availability = %v, want (0,1)", row.Availability)
	}
	if len(row.Outages) != 1 {
		t.Fatalf("outages = %d", len(row.Outages))
	}
	o := row.Outages[0]
	if o.Cause != "fiber-cut" || o.Resolution != "restored" || o.Open {
		t.Errorf("outage = %+v", o)
	}
	var phaseSum float64
	for _, p := range o.Phases {
		phaseSum += p.Seconds
	}
	if diff := phaseSum - o.Seconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phases sum to %v s, outage is %v s", phaseSum, o.Seconds)
	}
	if rep.Unattributed != 0 {
		t.Errorf("unattributed = %d", rep.Unattributed)
	}

	// Another tenant sees an empty report, not acme's outages.
	other, err := c.SLA("rival")
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Conns) != 0 {
		t.Errorf("rival sees %d connections", len(other.Conns))
	}
	// The operator view includes acme's connection.
	op, err := c.SLA("")
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Conns) != 1 {
		t.Errorf("operator view = %d conns", len(op.Conns))
	}
}

// TestSLAOperatorViewSharded: the operator report must list the connections
// of every shard's ledger, ID-ordered, with totals that are the sum of the
// tenants' own reports — not shard 0's ledger alone.
func TestSLAOperatorViewSharded(t *testing.T) {
	c, net := newTestServer(t, griphon.WithShards(4))

	var tenants []string
	for i := 0; len(tenants) < 8; i++ {
		if name := fmt.Sprintf("tenant-%d", i); net.ShardFor(name) != 0 {
			tenants = append(tenants, name)
		}
	}
	for _, tenant := range tenants {
		if _, err := c.Connect(ConnectRequest{Customer: tenant, From: "DC-A", To: "DC-B", Rate: "1G"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance("1h"); err != nil {
		t.Fatal(err)
	}

	op, err := c.SLA("")
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Conns) != len(tenants) {
		t.Fatalf("operator view lists %d of %d connections", len(op.Conns), len(tenants))
	}
	if !slices.IsSortedFunc(op.Conns, func(a, b SLAConnJSON) int { return strings.Compare(a.ID, b.ID) }) {
		t.Errorf("operator view not ordered by ID: %+v", op.Conns)
	}
	var lifetime float64
	for _, tenant := range tenants {
		own, err := c.SLA(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if len(own.Conns) != 1 {
			t.Fatalf("%s sees %d connections", tenant, len(own.Conns))
		}
		lifetime += own.LifetimeS
	}
	if diff := op.LifetimeS - lifetime; diff > 1e-6 || diff < -1e-6 || lifetime == 0 {
		t.Errorf("operator lifetime = %v s, tenants' reports sum to %v s", op.LifetimeS, lifetime)
	}
	if op.Availability != 1 {
		t.Errorf("operator availability = %v with no outage", op.Availability)
	}
}

func TestAlarmsEndpoint(t *testing.T) {
	c, net := newTestServer(t)
	cutAndRestore(t, c, net, "acme")

	resp, err := c.Alarms("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 for one cut", len(resp.Groups))
	}
	g := resp.Groups[0]
	if g.Kind != "fiber-cut" || g.Link == "" {
		t.Errorf("group = %+v", g)
	}
	if len(g.Children) != 2 {
		t.Errorf("children = %d, want 2 LOS", len(g.Children))
	}
	if !strings.Contains(g.Root.Detail, "fiber cut suspected") {
		t.Errorf("root detail = %q", g.Root.Detail)
	}

	// Customer filtering and cursor resume.
	mine, err := c.Alarms("acme", 0)
	if err != nil || len(mine.Groups) != 1 {
		t.Fatalf("acme view = %+v, %v", mine, err)
	}
	none, err := c.Alarms("rival", 0)
	if err != nil || len(none.Groups) != 0 {
		t.Fatalf("rival view = %+v, %v", none, err)
	}
	caught, err := c.Alarms("", resp.Next)
	if err != nil || len(caught.Groups) != 0 {
		t.Fatalf("resume = %+v, %v", caught, err)
	}
}

func TestEventsSinceEndpoint(t *testing.T) {
	c, net := newTestServer(t)
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"}); err != nil {
		t.Fatal(err)
	}
	page, err := c.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) == 0 || page.Next != len(page.Events) {
		t.Fatalf("page = %d events next %d", len(page.Events), page.Next)
	}
	// The bare-array response (no since) still works for old clients.
	evs, err := c.Events("")
	if err != nil || len(evs) != len(page.Events) {
		t.Fatalf("bare events = %d, %v", len(evs), err)
	}
	// Resume picks up only new activity.
	cutAndRestore(t, c, net, "bob")
	more, err := c.EventsSince(page.Next)
	if err != nil || len(more.Events) == 0 {
		t.Fatalf("resume = %+v, %v", more, err)
	}
	for _, e := range more.Events {
		if e.Kind == "connect" && strings.Contains(e.Text, "acme") {
			t.Errorf("resumed page replays old event %+v", e)
		}
	}
	// since + conn is ambiguous and rejected.
	if err := c.do("GET", "/api/v1/events?since=0&conn=C0001", nil, nil); err == nil {
		t.Error("since+conn accepted")
	}
	// Bad cursors are a 400, not a panic.
	if err := c.do("GET", "/api/v1/events?since=wat", nil, nil); err == nil {
		t.Error("bad cursor accepted")
	}
	if err := c.do("GET", "/api/v1/alarms?since=wat", nil, nil); err == nil {
		t.Error("bad alarm cursor accepted")
	}
}
