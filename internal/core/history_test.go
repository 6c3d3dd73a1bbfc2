package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/journal"
	"griphon/internal/jsonenc"
	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata goldens from the current encoder")

// scriptedSession drives the mixed random workload on a journaled testbed
// controller and leaves it quiescent.
func scriptedSession(t *testing.T, dir string, seed int64, steps int) (*Controller, *journal.Store) {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(seed)
	c, err := New(k, topo.Testbed(), Config{AutoRepair: true, DegradeToOTN: true, Journal: store, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	runJournaledOps(t, k, c, steps)
	k.Run()
	return c, store
}

// TestSnapshotGolden freezes the on-disk snapshot of a scripted session: the
// bytes the streamed encoder writes for it must never move, whatever happens
// to the in-memory representation behind them.
func TestSnapshotGolden(t *testing.T) {
	dir := t.TempDir()
	c, store := scriptedSession(t, dir, 77, 160)
	c.snapshotNow()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openJournal(t, dir)
	defer reopened.Close()
	got, entries := reopened.Recovered()
	if len(entries) != 0 {
		t.Fatalf("%d WAL entries behind a fresh snapshot", len(entries))
	}

	golden := filepath.Join("testdata", "snapshot_session.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes moved (%d bytes, golden %d):\n got: %s\nwant: %s", len(got), len(want), got, want)
	}
	// The session is only a fair pin if it holds every kind of record.
	var st stateRec
	if err := json.Unmarshal(want, &st); err != nil {
		t.Fatal(err)
	}
	var released, onePlusOne, groomed, carrier int
	for _, r := range st.Conns {
		switch {
		case State(r.State) == StateReleased:
			released++
		case r.Internal:
			carrier++
		case r.ProtectPath != nil:
			onePlusOne++
		case len(r.Pipes) > 0:
			groomed++
		}
	}
	if released == 0 || onePlusOne == 0 || groomed == 0 || carrier == 0 {
		t.Errorf("session too plain: %d released, %d 1+1, %d groomed, %d carrier records", released, onePlusOne, groomed, carrier)
	}
}

// scanSeeds are snapshots with every shape of connection record: a real
// session's (active 1+1, regenerated, groomed, carrier, released) and a
// hand-built one for what a session rarely produces.
func scanSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte

	dir := t.TempDir()
	k := sim.NewKernel(5)
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// 40G reaches 300 km, so it crosses the testbed on I-II-III-IV through
	// two regenerators; roomy access pipes let every request fit.
	cfg := Config{Journal: store, SnapshotEvery: -1}
	cfg.Optics = optics.DefaultConfig()
	cfg.Optics.ReachByRate = map[bw.Rate]float64{bw.Rate40G: 300}
	g := topo.Testbed()
	for _, site := range g.Sites() {
		site.AccessGbps = 100
	}
	c, err := New(k, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const odd = "ac\"me\\ Ωmega <&>"
	for _, req := range []Request{
		{Customer: odd, From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne},
		{Customer: odd, From: "DC-A", To: "DC-C", Rate: bw.Rate40G}, // regenerated on the testbed
		{Customer: "plain", From: "DC-A", To: "DC-B", Rate: bw.Rate1G},
		{Customer: "plain", From: "DC-B", To: "DC-C", Rate: bw.Rate2G5},
	} {
		if _, _, err := c.Connect(req); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	gone := c.CustomerConnections("plain")[1]
	if _, err := c.Disconnect("plain", gone.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	st := c.captureState()
	var buf bytes.Buffer
	if err := streamState(&buf, &st); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, bytes.Clone(buf.Bytes()))

	crafted := stateRec{
		Now: 12, NextConn: 10001, LpSeq: 3, NextBooking: 1, NextPipe: 2,
		Quotas:    []quotaRec{{Customer: odd, MaxConnections: 4}},
		DownLinks: []string{"I-IV"},
		Conns: []connRec{
			{ID: "C0001", Customer: odd, From: "DC-A", To: "DC-B", Rate: int64(bw.Rate10G), Layer: int(LayerOTN),
				Protect: int(SharedMesh), State: int(StateDown), Degraded: true, Pipes: []string{"P000:I-III"}, Slots: 8,
				Backup: []string{"P001:I-II", "P002:II-III"}, RequestedAt: 1, ActiveAt: 2, Restorations: 1, Rolls: 2},
			{ID: "C10000", Customer: "carrier", Rate: int64(bw.Rate10G), State: int(StateReleased), Internal: true,
				Carries: "P000:I-III", RequestedAt: -5, ReleasedAt: 1 << 62},
			{ID: "C9999", Customer: "", State: int(StateReleased)},
			// Lightpaths the testbed never routes: nil route slices, which
			// are written null, and lengths in the exponent form.
			{ID: "C9999a", Customer: odd, State: int(StateActive), Path: &lightpathRec{
				Route: rwa.Route{Plan: optics.RegenPlan{Segments: []optics.Segment{{KM: 1e-7}, {Links: []topo.LinkID{"II-III"}, KM: 1e21}}}},
				OTs:   [2]string{"OT-I-00", ""}, Regens: []string{"RG-II-00"}, SegOwners: []string{odd, ""},
			}, ProtectPath: &lightpathRec{Route: rwa.Route{
				Path:     topo.Path{Nodes: []topo.NodeID{"I", "II"}, Links: []topo.LinkID{"I-II"}},
				Plan:     optics.RegenPlan{Segments: []optics.Segment{{Links: []topo.LinkID{"I-II"}, KM: 0.5}}, RegenNodes: []topo.NodeID{}},
				Channels: []optics.Channel{96},
			}, PortsA: [2]string{"C0", "L0"}, PortsB: [2]string{odd, "L1"}}},
		},
		Pipes:    []pipeRec{{ID: "P000:I-III", A: "I", B: "III", Level: 2, Up: true, Carrier: "C10000"}},
		Bookings: []bookingRec{{ID: 1, Customer: odd, From: "DC-A", To: "DC-B", Rate: 1, At: 5, Hold: 6}},
	}
	buf.Reset()
	if err := streamState(&buf, &crafted); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, bytes.Clone(buf.Bytes()))
	empty, _ := json.Marshal(&stateRec{})
	return append(seeds, empty)
}

// checkScanAgainstJSON is the differential property: whatever the scanner
// accepts, encoding/json decodes to the same state; whatever encoding/json
// accepts and would write back byte for byte, the scanner accepts.
func checkScanAgainstJSON(t *testing.T, data []byte) {
	got, gerr := decodeState(jsonenc.NewScanner(), data, 0)
	var want stateRec
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

// FuzzScanState holds the snapshot scanner to encoding/json on arbitrary
// bytes. The seeds are what the record appenders (appendState, recenc.go)
// write, the one writer of snapshots, which the scanner must always accept.
func FuzzScanState(f *testing.F) {
	for _, seed := range scanSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"conns":[{"id":"a","rate":-0,"pipes":[]}],"conns":null}`))
	f.Add([]byte(`{"now":1,"CONNS":[],"conns":[{}]}`))
	f.Add([]byte(`{"conns":[{"id":"a","path":{"route":{"Path":{"Nodes":null},"Plan":{"Segments":[{"KM":-0.0e+0}]}},"ots":["a","b","c"]}}]}`))
	f.Add([]byte(`{"conns":[{"id":"a","path":{"route":{"Channels":[1.5]},"ports_a":["x"]}}]}`))
	f.Fuzz(checkScanAgainstJSON)
}

// TestScanStateSeeds runs the differential check on the fuzz seeds in every
// plain `go test`, and requires the scanner to accept each of them.
func TestScanStateSeeds(t *testing.T) {
	for i, seed := range scanSeeds(t) {
		if _, err := decodeState(jsonenc.NewScanner(), seed, 0); err != nil {
			t.Errorf("seed %d rejected: %v\n%s", i, err, seed)
		}
		checkScanAgainstJSON(t, seed)
	}
	for _, bad := range []string{
		``, `null`, `{`, `{"conns":[{"id":"a"}]} `, `{"conns":[{"id":"a",}]}`, `{"conns":[{"customer":"x","id":"a"}]}`,
		`{"conns":[{"id":"a","rate":01}]}`, `{"conns":[{"id":"a","rate":1e3}]}`, `{"conns":[{"id":"a","rate":9223372036854775808}]}`,
		`{"conns":[{"id":"a"}],"conns":[]}`, `{ "conns":[]}`, `{"conns":[{"id":"a","path":null}]}`,
		`{"quotas":null}`, `{"conns":[{"id":"a","pipes":null}]}`, `{"conns":[{"id":"a","path":{"ots":["a"]}}]}`,
		`{"conns":[{"id":"a","path":{"route":{"Plan":{"Segments":[{"KM":1e400}]}}}}]}`,
		`{"conns":[{"id":"a","path":{"route":{"Plan":{"Segments":[{"KM":.5}]}}}}]}`,
		`{"conns":[{"id":"a","path":{"route":{"Channels":[1.0]}}}]}`,
	} {
		if _, err := decodeState(jsonenc.NewScanner(), []byte(bad), 0); err == nil {
			t.Errorf("scanner accepts %q", bad)
		}
		checkScanAgainstJSON(t, []byte(bad))
	}
}

// TestFoldRejectsUnorderedSnapshot: the fold keeps the snapshot's own order,
// so a snapshot whose connections are not in ID order is corrupt, not
// something to repair silently.
func TestFoldRejectsUnorderedSnapshot(t *testing.T) {
	if _, err := foldState([]byte(`{"conns":[{"id":"C0002"},{"id":"C0001"}]}`), nil); err == nil {
		t.Error("unordered snapshot folded")
	}
	if _, err := foldState([]byte(`{"conns":[{"id":"C0001"},{"id":"C0001"}]}`), nil); err == nil {
		t.Error("snapshot with a repeated connection folded")
	}
}

// TestReleasedConnectionStillAnswers: a released connection is a compact row,
// but everything a caller could ask of it answers as it always did, in the
// controller that released it and in one rebuilt from the journal.
func TestReleasedConnectionStillAnswers(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	k := sim.NewKernel(9)
	c, err := New(k, topo.Testbed(), Config{Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	wave := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: Unprotected})
	circuit := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if wave.Route().Hops() == 0 || len(wave.Channels()) == 0 || len(circuit.PipeIDs()) == 0 {
		t.Fatal("live connections report no realization")
	}
	k.RunFor(time.Hour)
	// An outage on the wavelength, repaired, so the totals are not zero.
	cut := wave.Route().Links[0]
	if err := c.CutFiber(cut); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * time.Minute)
	if err := c.RepairFiber(cut); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Hour)
	for _, conn := range []*Connection{wave, circuit} {
		if _, err := c.Disconnect("x", conn.ID); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()

	check := func(c *Controller, id ConnID, usage float64, outage sim.Duration) {
		t.Helper()
		conn := c.Conn(id)
		if conn == nil || conn.State != StateReleased {
			t.Fatalf("%s: %+v", id, conn)
		}
		if r := conn.Route(); r.Hops() != 0 || len(r.Nodes) != 0 {
			t.Errorf("%s: released route %v", id, r)
		}
		if ch := conn.Channels(); ch != nil {
			t.Errorf("%s: released channels %v", id, ch)
		}
		if p := conn.PipeIDs(); p == nil || len(p) != 0 {
			t.Errorf("%s: released pipes %#v", id, p)
		}
		now := c.k.Now()
		if got := conn.UsageGbHours(now); got != usage || got != conn.UsageGbHours(now.Add(time.Hour)) {
			t.Errorf("%s: usage %v (an hour on %v), want a final %v", id, got, conn.UsageGbHours(now.Add(time.Hour)), usage)
		}
		if got := conn.Outage(now.Add(time.Hour)); got != outage {
			t.Errorf("%s: outage %v, want %v", id, got, outage)
		}
		if got := c.CustomerConnections("x"); len(got) != 2 {
			t.Errorf("listing holds %d connections, want both released ones", len(got))
		}
	}
	waveUsage, circuitUsage := wave.UsageGbHours(k.Now()), circuit.UsageGbHours(k.Now())
	if waveUsage <= 0 || circuitUsage <= 0 || wave.TotalOutage != 10*time.Minute {
		t.Fatalf("usage %v / %v, outage %v: the session left nothing to keep", waveUsage, circuitUsage, wave.TotalOutage)
	}
	if wave.connLive != nil || circuit.connLive != nil {
		t.Error("released connections still hold their live half")
	}
	check(c, wave.ID, waveUsage, 10*time.Minute)
	check(c, circuit.ID, circuitUsage, 0)
	if got, want := c.BillGbHours("x"), waveUsage+circuitUsage; got != want {
		t.Errorf("bill %v, want %v", got, want)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Meters and outage clocks are not journaled (persist.go): after a
	// restart the row is there, with zero totals.
	store2 := openJournal(t, dir)
	defer store2.Close()
	c2, err := Rehydrate(sim.NewKernel(10), topo.Testbed(), Config{Journal: store2})
	if err != nil {
		t.Fatal(err)
	}
	check(c2, wave.ID, 0, 0)
	check(c2, circuit.ID, 0, 0)
	if got := c2.Snapshot().Released; got != 2 {
		t.Errorf("released count after restart = %d", got)
	}
}

// TestCutRepairRecordIgnoresHistory: a cut or repair commit carries the
// connections it could have changed — the live ones — so its size does not
// grow with the released connections behind it, and snapshot + WAL still
// replay to the live state.
func TestCutRepairRecordIgnoresHistory(t *testing.T) {
	cutRepairBytes := func(history int) (perOp uint64, live, replayed []byte) {
		dir := t.TempDir()
		store := openJournal(t, dir)
		k := sim.NewKernel(3)
		c, err := New(k, topo.Testbed(), Config{Journal: store, SnapshotEvery: 128})
		if err != nil {
			t.Fatal(err)
		}
		mustConnect(t, k, c, Request{Customer: "keeper", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
		for i := 0; i < history; i++ {
			conn := mustConnect(t, k, c, Request{Customer: "churn", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
			if _, err := c.Disconnect("churn", conn.ID); err != nil {
				t.Fatal(err)
			}
			k.Run()
		}
		before := store.Stats().Bytes
		if err := c.CutFiber("I-II"); err != nil {
			t.Fatal(err)
		}
		if err := c.RepairFiber("I-II"); err != nil {
			t.Fatal(err)
		}
		perOp = (store.Stats().Bytes - before) / 2
		k.Run()
		if live, err = c.DurableState(); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := openJournal(t, dir)
		defer reopened.Close()
		if replayed, err = ReplayDurable(reopened.Recovered()); err != nil {
			t.Fatal(err)
		}
		return perOp, live, replayed
	}
	small, _, _ := cutRepairBytes(5)
	big, live, replayed := cutRepairBytes(500)
	// The clock and the ID counters print a few digits longer; nothing else.
	if big > small+32 {
		t.Errorf("cut/repair record is %d B after 500 released connections, %d B after 5", big, small)
	}
	if !bytes.Equal(live, replayed) {
		t.Errorf("replay diverges from live state across cut/repair:\nlive:   %s\nreplay: %s", live, replayed)
	}
}

// TestConnIndexOrderPastFourDigits: IDs sort as strings, so the 10 000th
// connection lands mid-index; every view must stay in the order snapshots and
// listings have always had.
func TestConnIndexOrderPastFourDigits(t *testing.T) {
	var x connIndex
	var held []*Connection // a listing handed out before the fifth digit
	for _, n := range []int{9998, 9999, 10000, 10001, 3} {
		if n == 10000 {
			held = view(x.byCust["a"])
		}
		x.insert(&Connection{ID: ConnID(fmt.Sprintf("C%04d", n)), Customer: "a", State: StateActive})
	}
	if len(held) != 2 || held[0].ID != "C9998" || held[1].ID != "C9999" {
		t.Errorf("a listing changed under its holder: %v", held)
	}
	var got []ConnID
	for _, conn := range x.byCust["a"] {
		got = append(got, conn.ID)
	}
	want := []ConnID{"C0003", "C10000", "C10001", "C9998", "C9999"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("index order %v, want %v", got, want)
	}
	for _, id := range want {
		if conn := x.get(id); conn == nil || conn.ID != id {
			t.Errorf("get(%s) = %v", id, conn)
		}
	}
	if x.get("C0004") != nil {
		t.Error("get finds a connection never inserted")
	}
	x.retire(x.get("C10000"))
	if len(x.live) != 4 || len(x.all) != 5 || x.released != 1 {
		t.Errorf("after retire: %d live, %d all, %d released", len(x.live), len(x.all), x.released)
	}
}

// TestEventLogChunks: the chunked log reads back exactly what was appended,
// across chunk boundaries and through every read path.
func TestEventLogChunks(t *testing.T) {
	var l eventLog
	a, b := &Connection{ID: "A"}, &Connection{ID: "B"}
	var want []Event
	for i := 0; i < 2*eventChunkRows+7; i++ {
		conn, e := a, Event{At: sim.Time(i), Conn: "A", Kind: "even", Text: fmt.Sprintf("entry %d", i)}
		switch i % 3 {
		case 1:
			conn, e.Conn, e.Kind = b, "B", "odd"
		case 2:
			conn, e.Conn, e.Kind, e.Text = nil, "", "global", ""
		}
		if e.Text == "" {
			l.append(e.At, conn, e.Kind, "")
		} else {
			l.append(e.At, conn, e.Kind, "entry %d", i)
		}
		want = append(want, e)
		if got := l.at(i); got != e {
			t.Fatalf("entry %d reads back %+v right after append, want %+v", i, got, e)
		}
	}
	if got := logged(&l); !reflect.DeepEqual(got, want) {
		t.Fatal("full read differs from what was appended")
	}
	var wantB []Event
	for _, e := range want {
		if e.Conn == "B" {
			wantB = append(wantB, e)
		}
	}
	if got := l.forConn("B"); !reflect.DeepEqual(got, wantB) {
		t.Error("per-connection read differs")
	}
}
