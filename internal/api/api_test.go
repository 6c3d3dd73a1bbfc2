package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"griphon"
	"griphon/internal/journal"
)

func newTestServer(t *testing.T, opts ...griphon.Option) (*Client, *griphon.Network) {
	t.Helper()
	net, err := griphon.New(griphon.Testbed(), append([]griphon.Option{griphon.WithSeed(5)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(net).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), net
}

func TestConnectDisconnectRoundTrip(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Connections) != 1 {
		t.Fatalf("connections = %d", len(resp.Connections))
	}
	conn := resp.Connections[0]
	if conn.State != "active" || conn.Layer != "dwdm" || conn.Rate != "10G" {
		t.Errorf("conn = %+v", conn)
	}
	if conn.SetupSeconds < 55 || conn.SetupSeconds > 70 {
		t.Errorf("setup = %v s", conn.SetupSeconds)
	}
	if conn.Route == "" {
		t.Error("route missing")
	}

	list, err := c.Connections("acme")
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %v, %v", list, err)
	}
	if err := c.Disconnect("acme", conn.ID); err != nil {
		t.Fatal(err)
	}
	list, _ = c.Connections("acme")
	if len(list) != 1 || list[0].State != "released" {
		t.Errorf("after disconnect: %+v", list)
	}
}

// TestAdvanceNearForeverThenConnect: /advance takes any non-negative
// duration. Two that together pass the clock's last instant stop it there,
// and the daemon still answers /connect, with clean books.
func TestAdvanceNearForeverThenConnect(t *testing.T) {
	c, net := newTestServer(t)
	for i := 0; i < 2; i++ {
		if err := c.Advance("2562047h"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(math.MaxInt64).String(); st.Now != want {
		t.Errorf("now = %s, want the last instant %s", st.Now, want)
	}
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Connections) != 1 || resp.Connections[0].State != "active" {
		t.Errorf("connect answered %+v", resp.Connections)
	}
	for _, f := range net.AuditInvariants() {
		t.Error(f)
	}
}

func TestConnectComposite(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "12G"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Connections) != 3 {
		t.Fatalf("composite components = %d, want 3", len(resp.Connections))
	}
}

func TestConnectValidation(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "bogus"}); err == nil {
		t.Error("bogus rate accepted")
	}
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "10G", Protection: "wat"}); err == nil {
		t.Error("bogus protection accepted")
	}
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-Z", Rate: "10G"}); err == nil {
		t.Error("unknown site accepted")
	}
	// Cross-customer disconnect refused.
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect("evil", resp.Connections[0].ID); err == nil {
		t.Error("cross-customer disconnect accepted")
	} else if !strings.Contains(err.Error(), "belongs to") {
		t.Errorf("isolation error should mention ownership: %v", err)
	}
}

func TestCutRepairAndEvents(t *testing.T) {
	c, net := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Connections[0].ID
	link := strings.Split(resp.Connections[0].Route, "-")
	_ = link
	route := resp.Connections[0].Route // e.g. "I-IV"
	if err := c.Cut(route); err != nil {
		t.Fatal(err)
	}
	// Advance so restoration completes.
	if err := c.Advance("10m"); err != nil {
		t.Fatal(err)
	}
	list, _ := c.Connections("acme")
	if list[0].State != "active" || list[0].Restorations != 1 {
		t.Errorf("after cut+advance: %+v", list[0])
	}
	if err := c.Repair(route); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(route); err == nil {
		t.Error("double repair accepted")
	}
	evs, err := c.Events(id)
	if err != nil || len(evs) < 3 {
		t.Fatalf("events = %d, %v", len(evs), err)
	}
	all, err := c.Events("")
	if err != nil || len(all) < len(evs) {
		t.Fatalf("all events = %d, %v", len(all), err)
	}
	_ = net
}

func TestRollAndRegroom(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Connections[0].ID
	oldRoute := resp.Connections[0].Route
	rolled, err := c.Roll("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if rolled.Route == oldRoute {
		t.Error("roll did not change route")
	}
	if rolled.Rolls != 1 {
		t.Errorf("rolls = %d", rolled.Rolls)
	}
	rg, err := c.Regroom("acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.Moved || rg.Connection.Route != oldRoute {
		t.Errorf("regroom = %+v", rg)
	}
}

func TestStatsAndTopology(t *testing.T) {
	c, _ := newTestServer(t)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.OTsTotal == 0 {
		t.Errorf("stats = %+v", st)
	}
	topoJSON, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(topoJSON.PoPs) != 4 || len(topoJSON.Fibers) != 5 || len(topoJSON.Sites) != 3 {
		t.Errorf("topology = %+v", topoJSON)
	}
}

func TestMaintenanceEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Maintenance(resp.Connections[0].Route, "1m", "1h")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Finished || len(m.Rolled) != 1 {
		t.Errorf("maintenance = %+v", m)
	}
	if _, err := c.Maintenance("nope", "1m", "1h"); err == nil {
		t.Error("unknown link accepted")
	}
	if _, err := c.Maintenance(resp.Connections[0].Route, "bogus", "1h"); err == nil {
		t.Error("bogus duration accepted")
	}
}

// TestMaintenanceInThePastRefused: a window that would open before now is
// refused with a JSON 409, like a non-positive one, on one shard and on four —
// it once reached the kernel, which panics at an event in the past, and the
// client saw its connection dropped with no answer. Nothing is scheduled and
// the books stay balanced.
func TestMaintenanceInThePastRefused(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5), griphon.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			h := NewServer(net).Handler()
			post := func(path, body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return rec
			}
			if rec := post("/api/v1/connect", `{"customer":"acme","from":"DC-A","to":"DC-C","rate":"10G"}`); rec.Code != http.StatusOK {
				t.Fatalf("connect = %d: %s", rec.Code, rec.Body)
			}
			if rec := post("/api/v1/advance", `{"duration":"1h"}`); rec.Code != http.StatusOK {
				t.Fatalf("advance = %d: %s", rec.Code, rec.Body)
			}
			rec := post("/api/v1/maintenance", `{"link":"I-II","in":"-5h"}`)
			var apiErr ErrorJSON
			if rec.Code != http.StatusConflict || json.Unmarshal(rec.Body.Bytes(), &apiErr) != nil ||
				!strings.Contains(apiErr.Error, "before now") {
				t.Errorf("maintenance 5h in the past = %d %q, want a JSON 409 saying it is before now", rec.Code, rec.Body)
			}
			net.Advance(6 * time.Hour)
			if findings := net.AuditInvariants(); len(findings) != 0 {
				t.Errorf("audit after the refusal: %v", findings)
			}
			for _, e := range net.Events() {
				if strings.HasPrefix(e.Kind, "maintenance") {
					t.Errorf("refused maintenance left an event: %v", e)
				}
			}
		})
	}
}

func TestAdvanceValidation(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.Advance("wat"); err == nil {
		t.Error("bogus duration accepted")
	}
	if err := c.Advance("-5s"); err == nil {
		t.Error("negative duration accepted")
	}
	if err := c.Advance("1h"); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stats()
	if st.Now != "1h0m0s" {
		t.Errorf("now = %s", st.Now)
	}
}

func TestConnectionsRequiresCustomer(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Connections(""); err == nil {
		t.Error("missing customer accepted")
	}
}

func TestAdjustEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "1G"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Connections[0].ID
	adjusted, err := c.Adjust("acme", id, "2.5G")
	if err != nil {
		t.Fatal(err)
	}
	if adjusted.Rate != "2.5G" {
		t.Errorf("rate = %s", adjusted.Rate)
	}
	if _, err := c.Adjust("acme", id, "bogus"); err == nil {
		t.Error("bogus rate accepted")
	}
	if _, err := c.Adjust("evil", id, "1G"); err == nil {
		t.Error("cross-customer adjust accepted")
	}
	if _, err := c.Adjust("acme", id, "10G"); err == nil {
		t.Error("layer-crossing adjust accepted")
	}
}

func TestDefragEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	// Fragment: 2 wavelengths, drop the first.
	r1, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "10G"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect("acme", r1.Connections[0].ID); err != nil {
		t.Fatal(err)
	}
	d, err := c.Defrag()
	if err != nil {
		t.Fatal(err)
	}
	if d.Retuned != 1 || d.MaxChannelNow != 1 {
		t.Errorf("defrag = %+v", d)
	}
}

// TestDefragMaxChannelSharded: the plant-wide figure must count channels lit
// by every shard, not only shard 0's replica.
func TestDefragMaxChannelSharded(t *testing.T) {
	c, net := newTestServer(t, griphon.WithShards(2))

	tenant := ""
	for i := 0; tenant == ""; i++ {
		if name := fmt.Sprintf("tenant-%d", i); net.ShardFor(name) == 1 {
			tenant = name
		}
	}
	if _, err := c.Connect(ConnectRequest{Customer: tenant, From: "DC-A", To: "DC-B", Rate: "10G"}); err != nil {
		t.Fatal(err)
	}
	d, err := c.Defrag()
	if err != nil {
		t.Fatal(err)
	}
	if d.Retuned != 0 || d.MaxChannelNow != 1 {
		t.Errorf("defrag = %+v, want nothing retuned and channel 1 lit", d)
	}
}

func TestBillEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("2h"); err != nil {
		t.Fatal(err)
	}
	bill, err := c.Bill("acme")
	if err != nil {
		t.Fatal(err)
	}
	if bill.GbHours < 19.9 || bill.GbHours > 20.1 {
		t.Errorf("bill = %.2f Gb-h, want ~20", bill.GbHours)
	}
	if _, err := c.Bill(""); err == nil {
		t.Error("missing customer accepted")
	}
}

// TestConnectRepliesWithExactlyTheNewConnections: the reply to a connect holds
// the connections that request created and no others. IDs list in string
// order, where "C10000" sorts before "C9999", so a reply cut off the end of
// the customer's listing goes wrong at the fifth digit. The state dir starts
// from a crafted snapshot whose ID counter is already at 9998.
func TestConnectRepliesWithExactlyTheNewConnections(t *testing.T) {
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot([]byte(`{"now":0,"next_conn":9998,"lp_seq":0,"next_booking":0,"next_pipe":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5), griphon.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv := httptest.NewServer(NewServer(net).Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	ids := func(resp ConnectResponse) []string {
		var out []string
		for _, conn := range resp.Connections {
			out = append(out, conn.ID)
		}
		return out
	}
	composite, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "12G"})
	if err != nil {
		t.Fatal(err)
	}
	// The 1G components ride a pipe whose carrier wavelength takes an ID too.
	if got, want := ids(composite), []string{"C9998", "C9999", "C10001"}; !slices.Equal(got, want) {
		t.Errorf("12G reply holds %v, want %v", got, want)
	}
	single, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-B", Rate: "1G"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(single), []string{"C10002"}; !slices.Equal(got, want) {
		t.Errorf("1G reply holds %v, want %v", got, want)
	}
}
