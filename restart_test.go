package griphon_test

// Restart tests: the griphond deployment story. A network built with
// WithStateDir journals every committed operation; killing the process and
// building a new network over the same directory must bring back the exact
// controller state — same connection IDs, same states, same routes, same
// virtual clock — and scheduled bookings must still fire.

import (
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"griphon"
	"griphon/internal/api"
)

type connFingerprint struct {
	id    string
	state string
	rate  string
	layer string
	route string
}

func fingerprint(net *griphon.Network, customer string) []connFingerprint {
	var out []connFingerprint
	for _, c := range net.Connections(customer) {
		out = append(out, connFingerprint{
			id:    string(c.ID),
			state: c.State.String(),
			rate:  c.Rate.String(),
			layer: c.Layer.String(),
			route: c.Route().String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func TestRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	open := func(seed int64) *griphon.Network {
		net, err := griphon.New(griphon.Testbed(),
			griphon.WithSeed(seed), griphon.WithStateDir(dir), griphon.WithAutoRepair())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	net1 := open(11)
	net1.SetQuota("acme", 10, 0)
	wave, err := net1.Connect("acme", "DC-A", "DC-C", griphon.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net1.Connect("acme", "DC-A", "DC-B", 12*griphon.Gbps); err != nil {
		t.Fatal(err)
	}
	gone, err := net1.Connect("acme", "DC-B", "DC-C", griphon.Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	if err := net1.Disconnect("acme", gone.ID); err != nil {
		t.Fatal(err)
	}
	booking, err := net1.ScheduleConnect("acme", "DC-A", "DC-C", griphon.Rate1G, 2*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	before := fingerprint(net1, "acme")
	// The clock recovers to the last *committed* event, so capture it here
	// rather than after an uncommitted Advance.
	beforeNow := net1.Now()
	beforeStats := net1.Stats()
	if err := net1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process restart": a different seed proves the state comes from the
	// journal, not from replaying the same random workload.
	net2 := open(99)
	defer net2.Close()

	if got := net2.Now(); got != beforeNow {
		t.Errorf("virtual clock: recovered %v, want %v", got, beforeNow)
	}
	after := fingerprint(net2, "acme")
	if len(after) != len(before) {
		t.Fatalf("connection count: recovered %d, want %d\nbefore=%v\nafter=%v",
			len(after), len(before), before, after)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("connection %d diverged:\n before %+v\n after  %+v", i, before[i], after[i])
		}
	}
	s := net2.Stats()
	s.Events, beforeStats.Events = 0, 0 // audit log is in-memory, not durable
	if !reflect.DeepEqual(s, beforeStats) {
		t.Errorf("stats diverged:\n before %+v\n after  %+v", beforeStats, s)
	}

	// The recovered connection is live, not a record: a fiber cut on its
	// working path must trigger restoration.
	recovered := net2.Conn(wave.ID)
	if recovered == nil || recovered.State.String() != "active" {
		t.Fatalf("wavelength %s not active after restart: %+v", wave.ID, recovered)
	}
	if err := net2.CutFiber(string(recovered.Route().Links[0])); err != nil {
		t.Fatal(err)
	}
	net2.Advance(time.Hour)
	if st := net2.Conn(wave.ID).State.String(); st != "active" {
		t.Errorf("wavelength after cut+restore = %s, want active", st)
	}

	// The re-armed booking fires when its window opens on the new process.
	net2.Advance(3 * time.Hour)
	b, err := net2.Booking("acme", booking.ID)
	if err != nil {
		t.Fatalf("booking lost across restart: %v", err)
	}
	if len(b.Conns) == 0 || b.SetupErr != nil {
		t.Errorf("booking did not open after restart: conns=%d err=%v", len(b.Conns), b.SetupErr)
	}

	// Quota survived: the recovered limit still admits within bounds.
	if _, err := net2.Connect("acme", "DC-A", "DC-B", griphon.Rate1G); err != nil {
		t.Errorf("connect under recovered quota: %v", err)
	}
}

// TestGriphondRestart drives the restart through the HTTP API — what an
// operator actually sees when griphond is killed and relaunched with the same
// -state-dir.
func TestGriphondRestart(t *testing.T) {
	dir := t.TempDir()

	net1, err := griphon.New(griphon.Testbed(), griphon.WithSeed(3), griphon.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(api.NewServer(net1).Handler())
	c1 := api.NewClient(srv1.URL)
	resp, err := c1.Connect(api.ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Connections("acme")
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := net1.Close(); err != nil {
		t.Fatal(err)
	}

	net2, err := griphon.New(griphon.Testbed(), griphon.WithSeed(3), griphon.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer net2.Close()
	srv2 := httptest.NewServer(api.NewServer(net2).Handler())
	defer srv2.Close()
	c2 := api.NewClient(srv2.URL)

	got, err := c2.Connections("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("connections after restart = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].State != want[i].State || got[i].Route != want[i].Route {
			t.Errorf("conn %d diverged:\n before %+v\n after  %+v", i, want[i], got[i])
		}
	}
	// The recovered connection accepts operations through the new daemon.
	if err := c2.Disconnect("acme", resp.Connections[0].ID); err != nil {
		t.Errorf("disconnect recovered connection: %v", err)
	}
}

// TestMutationsDurableOnReturn: the controllers write their commits without
// waiting for the disk, and a library caller has nobody to do the waiting for
// it. Every mutating method therefore returns with its commits fsynced — in
// one fsync, however many commits it made.
func TestMutationsDurableOnReturn(t *testing.T) {
	net, err := griphon.New(griphon.Testbed(),
		griphon.WithSeed(11), griphon.WithStateDir(t.TempDir()), griphon.WithFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	store := net.ShardSet().Shard(0).Store
	var prev struct{ appends, fsyncs uint64 }
	settled := func(what string) {
		t.Helper()
		st := store.Stats()
		if want := min(st.Appends-prev.appends, 1); st.Fsyncs-prev.fsyncs != want {
			t.Fatalf("%s: %d commits, %d fsyncs, want %d", what, st.Appends-prev.appends, st.Fsyncs-prev.fsyncs, want)
		}
		if err := store.Sync(store.Seq()); err != nil {
			t.Fatal(err)
		}
		if after := store.Stats(); after.Fsyncs != st.Fsyncs {
			t.Fatalf("%s returned with seq %d not yet fsynced", what, store.Seq())
		}
		prev.appends, prev.fsyncs = st.Appends, st.Fsyncs
	}
	conn, err := net.Connect("acme", "DC-A", "DC-B", griphon.Rate1G)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Appends < 2 {
		t.Fatalf("a first 1G connect made %d commits; the test wants one that makes several", store.Stats().Appends)
	}
	settled("Connect")
	net.SetQuota("acme", 10, 0)
	settled("SetQuota")
	if err := net.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	settled("CutFiber")
	net.Advance(10 * time.Minute)
	settled("Advance")
	if err := net.Disconnect("acme", conn.ID); err != nil {
		t.Fatal(err)
	}
	settled("Disconnect")
}
