package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"griphon/internal/api"
)

func TestBuildNetworkTopologies(t *testing.T) {
	cases := []struct {
		name      string
		wantPoPs  string
		wantSites int
	}{
		{"testbed", "4 PoPs", 3},
		{"backbone", "14 PoPs", 6},
		{"continental", "20 PoPs", 4},
	}
	for _, c := range cases {
		net, desc, err := buildNetwork(c.name, 20, 4, 1, true, false, "", false, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if net == nil || !strings.Contains(desc, c.wantPoPs) {
			t.Errorf("%s: desc = %q", c.name, desc)
		}
	}
}

func TestBuildNetworkErrors(t *testing.T) {
	if _, _, err := buildNetwork("bogus", 0, 0, 1, false, false, "", false, 1); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, _, err := buildNetwork("continental", 2, 1, 1, false, false, "", false, 1); err == nil {
		t.Error("invalid continental parameters accepted")
	}
}

// TestServedNetworkEndToEnd boots the same server main would and drives one
// connection through it.
func TestServedNetworkEndToEnd(t *testing.T) {
	net, _, err := buildNetwork("testbed", 0, 0, 9, true, true, "", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(net).Handler())
	defer srv.Close()
	client := api.NewClient(srv.URL)
	resp, err := client.Connect(api.ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Connections[0].State != "active" {
		t.Errorf("state = %s", resp.Connections[0].State)
	}
}

// TestServedShardedNetwork boots griphond with -shards 4 and checks tenants
// provision through their shards while /api/v1/shards reports the layout.
func TestServedShardedNetwork(t *testing.T) {
	net, desc, err := buildNetwork("testbed", 0, 0, 9, true, false, "", false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "4 control-plane shards") {
		t.Errorf("desc = %q, want shard count", desc)
	}
	srv := httptest.NewServer(api.NewServer(net).Handler())
	defer srv.Close()
	client := api.NewClient(srv.URL)
	for _, cust := range []string{"acme", "globex", "initech"} {
		resp, err := client.Connect(api.ConnectRequest{Customer: cust, From: "DC-A", To: "DC-C", Rate: "10G"})
		if err != nil {
			t.Fatalf("%s: %v", cust, err)
		}
		if resp.Connections[0].State != "active" {
			t.Errorf("%s: state = %s", cust, resp.Connections[0].State)
		}
	}
	res, err := http.Get(srv.URL + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var sh api.ShardsResponse
	if err := json.NewDecoder(res.Body).Decode(&sh); err != nil {
		t.Fatal(err)
	}
	if sh.Shards != 4 || len(sh.PerShard) != 4 {
		t.Fatalf("shards = %d (%d rows), want 4", sh.Shards, len(sh.PerShard))
	}
	total := 0
	for _, row := range sh.PerShard {
		total += row.Active
	}
	if total != 3 {
		t.Errorf("active across shards = %d, want 3", total)
	}
}
