package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/jsonenc"
	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// sameAsMarshal requires the appender's bytes to be encoding/json's for v.
func sameAsMarshal(t *testing.T, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appender and encoding/json differ:\nappend: %s\njson:   %s", got, want)
	}
}

// checkRecords holds every appender to encoding/json on one commit record and
// one state built from the same parts, and on each connection record alone.
func checkRecords(t *testing.T, rec *commitRec, st *stateRec) {
	t.Helper()
	for i := range st.Conns {
		sameAsMarshal(t, connFields.Append(nil, &st.Conns[i]), &st.Conns[i])
	}
	sameAsMarshal(t, commitFields.Append(nil, rec), rec)
	got, err := appendState(nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameAsMarshal(t, got, st)
}

// fuzzRecords builds a commit record and a state from fuzzer input: s is every
// string, n every integer, km every segment length, and the bits of shape
// choose between nil, empty and filled slices and pointers.
func fuzzRecords(s string, n int64, km float64, shape uint16) (commitRec, stateRec) {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	// strs is nil, empty or filled by two bits of shape.
	strs := func(i uint) []string {
		switch {
		case bit(i) && bit(i+1):
			return []string{s, "", s}
		case bit(i):
			return []string{}
		}
		return nil
	}
	route := rwa.Route{}
	if bit(3) {
		route = rwa.Route{
			Path:     topo.Path{Nodes: []topo.NodeID{topo.NodeID(s), "II"}, Links: []topo.LinkID{topo.LinkID(s)}},
			Plan:     optics.RegenPlan{Segments: []optics.Segment{{Links: []topo.LinkID{topo.LinkID(s)}, KM: km}, {KM: -km}}, RegenNodes: []topo.NodeID{}},
			Channels: []optics.Channel{optics.Channel(n), 0},
		}
	}
	lp := &lightpathRec{Route: route, OTs: [2]string{s, ""}, Regens: strs(4), PortsA: [2]string{"", s}, SegOwners: strs(4)}
	conn := connRec{
		ID: s, Customer: s, Rate: n, Layer: int(n), Protect: int(-n), State: int(n >> 1),
		Internal: bit(0), Degraded: bit(1), OnProtect: bit(2), Pipes: strs(6), Slots: int(n), Backup: strs(7),
		RequestedAt: -n, ActiveAt: n, ReleasedAt: n >> 3, Restorations: int(n >> 7), Rolls: int(n),
	}
	if bit(8) {
		conn.From, conn.To, conn.Carries = s, s, s
		conn.Path = lp
	}
	if bit(9) {
		conn.ProtectPath = lp
	}
	quotas := []quotaRec{{Customer: s, MaxConnections: int(n), MaxBandwidth: n}, {Customer: s}}
	if !bit(10) {
		quotas = nil
	}
	pipes := []pipeRec{{ID: s, A: s, B: "III", Level: int(n), Up: bit(11), Carrier: s}}
	books := []bookingRec{{ID: int(n), Customer: s, From: s, Rate: n, At: -n, Hold: n, CloseAt: n, Conns: strs(12), Phase: int(n), SetupErr: s, CloseErr: s}}
	rec := commitRec{
		Reason: s, Now: n, NextConn: int(n), LpSeq: int(-n), NextBooking: int(n >> 2), NextPipe: int(n >> 5),
		Conns: []connRec{conn, {ID: s}}, Pipes: pipes, DelPipes: strs(12), Bookings: books,
	}
	if bit(14) {
		dl := strs(12)
		rec.DownLinks = &dl
	}
	if bit(15) {
		rec.Quotas = &quotas
	}
	st := stateRec{
		Now: n, NextConn: int(n), LpSeq: int(n), NextBooking: int(n), NextPipe: int(n),
		Quotas: quotas, DownLinks: strs(13), Conns: rec.Conns, Pipes: pipes, Bookings: books,
	}
	if bit(5) {
		st.Conns, st.Pipes, st.Bookings = nil, nil, nil
	}
	return rec, st
}

// checkRecordEncoding is the differential property: for a state decoded from
// data and for the records built from the rest of the input, every appender
// writes exactly what encoding/json marshals.
func checkRecordEncoding(t *testing.T, data []byte, s string, n int64, km float64, shape uint16) {
	var st stateRec
	if json.Unmarshal(data, &st) == nil {
		dl, q := st.DownLinks, st.Quotas
		rec := commitRec{Reason: s, Now: st.Now, NextConn: st.NextConn, Conns: st.Conns, Pipes: st.Pipes,
			Bookings: st.Bookings, DownLinks: &dl, Quotas: &q}
		checkRecords(t, &rec, &st)
	}
	// encoding/json refuses NaN and infinities; topo keeps segment lengths
	// finite, so the appenders never see one.
	if math.IsNaN(km) || math.IsInf(km, 0) {
		km = 0
	}
	rec, st := fuzzRecords(s, n, km, shape)
	checkRecords(t, &rec, &st)
}

// oddString holds everything encoding/json escapes: the HTML-sensitive
// characters, a quote and a backslash, U+2028 and U+2029, control bytes, DEL
// (which it does not) and invalid UTF-8.
const oddString = "ac\"me\\ <&>\u2028\u2029\x01\b\f\n\r\t\x7f \xff\xc3 Ωmega"

type recordSeed struct {
	data  []byte
	s     string
	n     int64
	km    float64
	shape uint16
}

func recordSeeds(t testing.TB) []recordSeed {
	var seeds []recordSeed
	for _, snap := range scanSeeds(t) {
		seeds = append(seeds, recordSeed{data: snap, s: "seed", n: 1, km: 1, shape: 0xffff})
	}
	return append(seeds,
		recordSeed{s: oddString, n: math.MinInt64, km: 1e-7, shape: 0xffff},
		recordSeed{s: "", n: math.MaxInt64, km: 1e21, shape: 0},
		recordSeed{s: "C0001", n: -1, km: -42.5, shape: 0x5555},
		recordSeed{s: "P000:I-III", n: 0, km: 0, shape: 0xaaaa},
		recordSeed{s: "x", n: 7, km: 123.456, shape: 0x7fff},
		recordSeed{s: "y", n: 1 << 40, km: 9.99e20, shape: 0x4b0f},
	)
}

func FuzzRecordEncoding(f *testing.F) {
	for _, s := range recordSeeds(f) {
		f.Add(s.data, s.s, s.n, s.km, s.shape)
	}
	f.Fuzz(checkRecordEncoding)
}

// TestRecordEncodingShapes pins the record shapes the appenders must get right
// by their literal bytes, beside the oracle; the primitives are pinned in
// internal/jsonenc.
func TestRecordEncodingShapes(t *testing.T) {
	var route rwa.Route
	got := routeFields.Append(nil, &route)
	if want := `{"Path":{"Nodes":null,"Links":null},"Plan":{"Segments":null,"RegenNodes":null},"Channels":null}`; string(got) != want {
		t.Errorf("empty route appends as %s, want %s", got, want)
	}
	sameAsMarshal(t, got, &route)
	empty, none := []string{}, []string(nil)
	noQuotas := []quotaRec(nil)
	rec := commitRec{Reason: "fiber-cut", DownLinks: &empty, Quotas: &noQuotas}
	got = commitFields.Append(nil, &rec)
	if want := `{"reason":"fiber-cut","now":0,"next_conn":0,"lp_seq":0,"next_booking":0,"next_pipe":0,"down_links":[],"quotas":null}`; string(got) != want {
		t.Errorf("commit appends as %s, want %s", got, want)
	}
	sameAsMarshal(t, got, &rec)
	rec.DownLinks = &none
	sameAsMarshal(t, commitFields.Append(nil, &rec), &rec)
}

// countingWriter counts the writes it is handed and keeps their bytes.
type countingWriter struct {
	bytes.Buffer
	writes, largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// TestStreamStateChunks: a state larger than a chunk reaches the writer in a
// few large writes, none much beyond a chunk, and still byte-identical to
// encoding/json.
func TestStreamStateChunks(t *testing.T) {
	rec, st := fuzzRecords("C0001", 12345, 87.5, 0xffff)
	one := connFields.Append(nil, &rec.Conns[0])
	for len(st.Conns)*len(one) < 3*snapshotChunk {
		st.Conns = append(st.Conns, rec.Conns[0])
	}
	var w countingWriter
	if err := streamState(&w, &st); err != nil {
		t.Fatal(err)
	}
	sameAsMarshal(t, w.Bytes(), &st)
	if w.writes < 3 || w.writes > 5 || w.largest > snapshotChunk+len(one)+len(`,"conns":[`) {
		t.Errorf("%d bytes in %d writes, the largest %d B: want chunks of about %d B", w.Len(), w.writes, w.largest, snapshotChunk)
	}
}

// TestCommitEncodeZeroAlloc: encoding a commit record into a warmed buffer
// allocates nothing, for each kind of commit the controller writes most: a
// groomed connect, a 1+1 wavelength, a booking, and a fiber cut carrying the
// down links and the pipes. The records are the ones the journal holds, and
// the appender writes them back byte for byte.
func TestCommitEncodeZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	k := sim.NewKernel(4)
	c, err := New(k, topo.Testbed(), Config{Journal: store, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	groomed := mustConnect(t, k, c, Request{Customer: "a", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	mustConnect(t, k, c, Request{Customer: "a", From: "DC-A", To: "DC-C", Rate: bw.Rate10G, Protect: OnePlusOne})
	if _, err := c.ScheduleConnect(Request{Customer: "a", From: "DC-B", To: "DC-C", Rate: bw.Rate10G}, k.Now().Add(time.Hour), time.Hour); err != nil {
		t.Fatal(err)
	}
	carrier := c.Conn(c.pipeCarrier[groomed.PipeIDs()[0]])
	if err := c.CutFiber(carrier.Route().Links[0]); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openJournal(t, dir)
	defer reopened.Close()
	_, entries := reopened.Recovered()

	kinds := map[string]func(*commitRec) bool{
		"groomed": func(r *commitRec) bool { return r.Reason == "setup" && len(r.Conns) == 1 && len(r.Conns[0].Pipes) > 0 },
		"1+1": func(r *commitRec) bool {
			return r.Reason == "setup" && len(r.Conns) == 1 && r.Conns[0].ProtectPath != nil
		},
		"booking": func(r *commitRec) bool { return r.Reason == "booking" && len(r.Bookings) == 1 },
		"cut":     func(r *commitRec) bool { return r.DownLinks != nil && len(*r.DownLinks) > 0 && len(r.Pipes) > 0 },
	}
	for name, is := range kinds {
		found := false
		for _, e := range entries {
			var rec commitRec
			if err := json.Unmarshal(e.Data, &rec); err != nil {
				t.Fatal(err)
			}
			if !is(&rec) {
				continue
			}
			found = true
			buf := commitFields.Append(nil, &rec)
			if !bytes.Equal(buf, e.Data) {
				t.Fatalf("%s commit re-encodes differently:\njournal: %s\nappend:  %s", name, e.Data, buf)
			}
			if allocs := testing.AllocsPerRun(100, func() { buf = commitFields.Append(buf[:0], &rec) }); allocs != 0 {
				t.Errorf("%s commit: %v allocations per encode, want 0", name, allocs)
			}
			break
		}
		if !found {
			t.Errorf("no %s commit in the journal", name)
		}
	}
}

// TestFailedSnapshotRetriesOnCadence: a snapshot that cannot be written is
// tried again snapshotEvery appends later, not on every commit — each attempt
// is a journal-error event and, for a write-stage failure, a full re-encode
// under the caller's lock. Once the cause clears, the next cadence point
// snapshots cleanly and the directory rehydrates byte-equal.
func TestFailedSnapshotRetriesOnCadence(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	// A directory where the snapshot's temp file goes: BeginSnapshot fails.
	tmp := filepath.Join(dir, "snapshot.db.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(6)
	c, err := New(k, topo.Testbed(), Config{Journal: store, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, k, c, Request{Customer: "a", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	mustConnect(t, k, c, Request{Customer: "a", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	appends := func() uint64 { return store.Stats().Appends }
	if appends() >= 16 {
		t.Fatalf("set-up wrote %d records, past the first cadence point", appends())
	}
	quotaUpTo := func(n uint64) {
		for i := 0; appends() < n; i++ {
			c.SetQuota("a", inventory.Quota{MaxConnections: 100 + i})
		}
		if appends() != n {
			t.Fatalf("wrote %d commit records, want %d", appends(), n)
		}
	}
	quotaUpTo(64)
	if got := c.ins.journalErrs.Value(); got != 4 {
		t.Errorf("%v journal errors after 64 commits with every snapshot failing, want 4 (one per 16 appends)", got)
	}
	if got := store.Stats().Snapshots; got != 0 {
		t.Fatalf("%d snapshots written through a blocked temp file", got)
	}

	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	quotaUpTo(79)
	if got := store.Stats().Snapshots; got != 0 {
		t.Fatalf("snapshot taken %d appends after the failed attempt, want 16", 79-64)
	}
	quotaUpTo(80)
	if got, errs := store.Stats().Snapshots, c.ins.journalErrs.Value(); got != 1 || errs != 4 {
		t.Fatalf("after the cause cleared: %d snapshots and %v journal errors, want 1 and 4", got, errs)
	}
	mustConnect(t, k, c, Request{Customer: "a", From: "DC-B", To: "DC-C", Rate: bw.Rate1G})
	want, err := c.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openJournal(t, dir)
	defer reopened.Close()
	c2, err := Rehydrate(sim.NewKernel(7), topo.Testbed(), Config{Journal: reopened, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("rehydrated state differs:\nlive:      %s\nrecovered: %s", want, got)
	}
}

// TestFieldTablesMatchTags keeps each record table beside its type: the rows
// name the members in declaration order, under the json tag's name with its
// omitempty, or under the Go name in the untagged route types. A row reads
// null exactly where encoding/json writes one: a slice of an untagged type,
// and a pointer to a slice.
func TestFieldTablesMatchTags(t *testing.T) {
	checkTable(t, commitFields)
	checkTable(t, stateFields)
	checkTable(t, connFields)
	checkTable(t, lightpathFields)
	checkTable(t, routeFields)
	checkTable(t, pathFields)
	checkTable(t, planFields)
	checkTable(t, segmentFields)
	checkTable(t, pipeFields)
	checkTable(t, bookingFields)
	checkTable(t, quotaFields)
}

func checkTable[T any](t *testing.T, tab jsonenc.Table[T]) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	if len(tab) != typ.NumField() {
		t.Errorf("%v: %d rows for %d fields", typ, len(tab), typ.NumField())
		return
	}
	for i, f := range tab {
		sf := typ.Field(i)
		key, opts, tagged := sf.Name, "", false
		if tag, ok := sf.Tag.Lookup("json"); ok {
			key, opts, _ = strings.Cut(tag, ",")
			tagged = true
		}
		omit := strings.Contains(opts, "omitempty")
		k := sf.Type.Kind()
		null := !tagged && k == reflect.Slice || k == reflect.Pointer && sf.Type.Elem().Kind() == reflect.Slice
		if f.Key != key || f.Omit != omit || f.Null != null {
			t.Errorf("%v row %d: key %q, omit %v, null %v; field %s wants %q, %v, %v",
				typ, i, f.Key, f.Omit, f.Null, sf.Name, key, omit, null)
		}
	}
}
