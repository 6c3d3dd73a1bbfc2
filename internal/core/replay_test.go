package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/jsonenc"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// recordedCommits drives a journaled testbed controller through every kind of
// commit record replay reads — groomed circuits, 1+1 and regenerated
// wavelengths, a pipe retired, bookings, a cut and its repair, a quota set and
// cleared — for a customer whose name holds a quote, a backslash and non-ASCII
// text, and returns the WAL records it wrote.
func recordedCommits(t testing.TB) []journal.Entry {
	t.Helper()
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 40G reaches 300 km, so it crosses the testbed on I-II-III-IV through
	// two regenerators; roomy access pipes let every request fit.
	cfg := Config{Journal: store, SnapshotEvery: -1}
	cfg.Optics = optics.DefaultConfig()
	cfg.Optics.ReachByRate = map[bw.Rate]float64{bw.Rate40G: 300}
	g := topo.Testbed()
	for _, site := range g.Sites() {
		site.AccessGbps = 100
	}
	k := sim.NewKernel(5)
	c, err := New(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const odd = "ac\"me\\ Ωmega <&>"
	connect := func(req Request) *Connection {
		conn, job, err := c.Connect(req)
		if err != nil {
			t.Fatalf("Connect(%+v): %v", req, err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatalf("setup of %+v: %v", req, job.Err())
		}
		return conn
	}
	disconnect := func(conn *Connection) {
		if _, err := c.Disconnect(conn.Customer, conn.ID); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	for i := 0; i < 8; i++ {
		disconnect(connect(Request{Customer: odd, From: "DC-A", To: "DC-B", Rate: bw.Rate1G}))
		disconnect(connect(Request{Customer: "plain", From: "DC-B", To: "DC-C", Rate: bw.Rate2G5}))
	}
	for i := 0; i < 4; i++ {
		disconnect(connect(Request{Customer: odd, From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne}))
		disconnect(connect(Request{Customer: "plain", From: "DC-A", To: "DC-C", Rate: bw.Rate40G}))
	}
	job, n := c.ReclaimIdlePipes()
	k.Run()
	if n == 0 || job.Err() != nil {
		t.Fatalf("%d pipes retired: %v", n, job.Err())
	}
	held := connect(Request{Customer: odd, From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: Restore})
	if _, err := c.ScheduleConnect(Request{Customer: odd, From: "DC-A", To: "DC-B", Rate: bw.Rate1G}, k.Now().Add(time.Minute), time.Hour); err != nil {
		t.Fatal(err)
	}
	k.Run()
	cut := held.Route().Links[0]
	if err := c.CutFiber(cut); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * time.Minute)
	if err := c.RepairFiber(cut); err != nil {
		t.Fatal(err)
	}
	c.SetQuota(odd, inventory.Quota{MaxConnections: 8, MaxBandwidth: bw.Rate40G})
	c.SetQuota(odd, inventory.Quota{})
	k.Run()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	_, entries := reopened.Recovered()
	reasons := map[string]bool{}
	for _, e := range entries {
		var rec struct{ Reason string }
		if err := json.Unmarshal(e.Data, &rec); err != nil {
			t.Fatal(err)
		}
		reasons[rec.Reason] = true
	}
	for _, want := range []string{"setup", "teardown", "pipe-retire", "booking", "booking-close", "fiber-cut", "repair", "quota"} {
		if !reasons[want] {
			t.Fatalf("recorded journal holds no %s commit: %v", want, reasons)
		}
	}
	return entries
}

// TestClearedQuotaSurvivesRestart: the commit that clears the last quota must
// read back as "no quotas". Written as null it read as "unchanged", and the
// cleared quota came back after a restart.
func TestClearedQuotaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	c, err := New(sim.NewKernel(1), topo.Testbed(), Config{Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	c.SetQuota("acme", inventory.Quota{MaxConnections: 1})
	c.SetQuota("acme", inventory.Quota{})
	live, err := c.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openJournal(t, dir)
	defer reopened.Close()
	c2, err := Rehydrate(sim.NewKernel(2), topo.Testbed(), Config{Journal: reopened})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) {
		t.Errorf("recovered state differs from live:\n got: %s\nwant: %s", got, live)
	}
}

// checkCommitAgainstJSON is the differential property for commit records:
// whatever the scanner accepts, encoding/json decodes to the same record;
// whatever encoding/json accepts and would write back byte for byte, the
// scanner accepts.
func checkCommitAgainstJSON(t *testing.T, data []byte) {
	var got commitRec
	gerr := decodeCommit(jsonenc.NewScanner(), data, &got)
	var want commitRec
	werr := json.Unmarshal(data, &want)
	switch {
	case gerr == nil && werr != nil:
		t.Fatalf("scanner accepts what encoding/json rejects (%v): %q", werr, data)
	case gerr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner and encoding/json disagree on %q:\nscanner: %+v\njson:    %+v", data, got, want)
		}
	case werr == nil:
		if canon, err := json.Marshal(&want); err == nil && bytes.Equal(canon, data) {
			t.Fatalf("scanner rejects canonical bytes (%v): %q", gerr, data)
		}
	}
}

// FuzzScanCommit holds the commit-record scanner to encoding/json on
// arbitrary bytes, and requires it to accept what commitFields writes for
// records built from the rest of the input (fuzzRecords). The seeds are a
// real journal's records and a few the appenders never write.
func FuzzScanCommit(f *testing.F) {
	for _, e := range recordedCommits(f) {
		f.Add([]byte(e.Data), "seed", int64(1), 1.0, uint16(0xffff))
	}
	for _, s := range recordSeeds(f) {
		if s.data == nil {
			f.Add([]byte(`{}`), s.s, s.n, s.km, s.shape)
		}
	}
	for _, odd := range []string{
		`{"reason":"quota","now":1,"next_conn":0,"lp_seq":0,"next_booking":0,"next_pipe":0,"quotas":null}`,
		`{"reason":"repair","down_links":null,"quotas":[]}`,
		`{"conns":[],"pipes":[],"del_pipes":[],"bookings":[]}`,
		`{"conns":[{"id":"a","path":{"route":{"Path":{"Nodes":null,"Links":null},"Plan":{"Segments":[{"Links":null,"KM":-1.5e-7}],"RegenNodes":null},"Channels":null},"ots":["",""],"ports_a":["",""],"ports_b":["",""]}}]}`,
		`{"reason":"x","reason":"y"}`,
		`{"now":1.0}`,
		`{"conns":[{"id":"a","path":{"route":{"Plan":{"Segments":[{"KM":01}]}}}}]}`,
	} {
		f.Add([]byte(odd), "", int64(0), 0.0, uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, n int64, km float64, shape uint16) {
		checkCommitAgainstJSON(t, data)
		if math.IsNaN(km) || math.IsInf(km, 0) {
			km = 0
		}
		rec, _ := fuzzRecords(s, n, km, shape)
		b := commitFields.Append(nil, &rec)
		if err := decodeCommit(jsonenc.NewScanner(), b, new(commitRec)); err != nil {
			t.Fatalf("scanner rejects what commitFields writes (%v): %q", err, b)
		}
		checkCommitAgainstJSON(t, b)
	})
}

// TestReplayAllocsPerCommit gates what replay costs per commit record: the
// fold of a recorded journal — groomed and wavelength setups and teardowns, a
// pipe retired, bookings, a cut and its repair, quotas — in allocations per
// record. The scanner spends about 7 on this mix, a groomed teardown 1;
// encoding/json spent about 27.
func TestReplayAllocsPerCommit(t *testing.T) {
	entries := recordedCommits(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := foldState(nil, entries); err != nil {
			t.Fatal(err)
		}
	})
	perCommit := allocs / float64(len(entries))
	t.Logf("%.1f allocs per commit record over %d records", perCommit, len(entries))
	const bound = 10
	if perCommit > bound {
		t.Errorf("replay allocates %.1f per commit record, bound %d", perCommit, bound)
	}
}
