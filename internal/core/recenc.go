package core

// The journal's record codec: one internal/jsonenc table per record type,
// listing its members once, in declaration order. Commit records, snapshots
// and the canonical state are written and read through them, as the bytes
// encoding/json's Marshal writes for the same types, so every journal ever
// written replays unchanged. encoding/json is the tests' oracle
// (FuzzRecordEncoding, FuzzScanState, FuzzScanCommit), and
// TestFieldTablesMatchTags holds each row to its struct tag.

import (
	"bytes"
	"io"
	"slices"

	"griphon/internal/jsonenc"
	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/topo"
)

// snapshotChunk is how many encoded bytes a snapshot gathers before it hands
// them to the journal in one write.
const snapshotChunk = 64 << 10

var (
	names    = jsonenc.Strings[string]{Intern: true}
	nodeIDs  = jsonenc.Strings[topo.NodeID]{Intern: true}
	linkIDs  = jsonenc.Strings[topo.LinkID]{Intern: true}
	quotaArr = jsonenc.Array[quotaRec](quotaFields)
)

var commitFields = jsonenc.Table[commitRec]{
	jsonenc.Name("reason", func(r *commitRec) *string { return &r.Reason }),
	jsonenc.Int64("now", func(r *commitRec) *int64 { return &r.Now }),
	jsonenc.Int("next_conn", func(r *commitRec) *int { return &r.NextConn }),
	jsonenc.Int("lp_seq", func(r *commitRec) *int { return &r.LpSeq }),
	jsonenc.Int("next_booking", func(r *commitRec) *int { return &r.NextBooking }),
	jsonenc.Int("next_pipe", func(r *commitRec) *int { return &r.NextPipe }),
	jsonenc.Sub("conns,omitempty", func(r *commitRec) *[]connRec { return &r.Conns }, jsonenc.Array[connRec](connFields)),
	jsonenc.Sub("pipes,omitempty", func(r *commitRec) *[]pipeRec { return &r.Pipes }, jsonenc.Array[pipeRec](pipeFields)),
	jsonenc.Sub("del_pipes,omitempty", func(r *commitRec) *[]string { return &r.DelPipes }, names),
	jsonenc.Sub("bookings,omitempty", func(r *commitRec) *[]bookingRec { return &r.Bookings }, jsonenc.Array[bookingRec](bookingFields)),
	// omitempty drops a nil pointer only: a pointer to a nil slice is null,
	// and a null reads back as a nil pointer, "unchanged".
	jsonenc.Sub("down_links,omitempty,null", func(r *commitRec) **[]string { return &r.DownLinks }, jsonenc.Ptr[[]string]{To: names}),
	jsonenc.Sub("quotas,omitempty,null", func(r *commitRec) **[]quotaRec { return &r.Quotas }, jsonenc.Ptr[[]quotaRec]{To: quotaArr}),
}

var stateFields = jsonenc.Table[stateRec]{
	jsonenc.Int64("now", func(st *stateRec) *int64 { return &st.Now }),
	jsonenc.Int("next_conn", func(st *stateRec) *int { return &st.NextConn }),
	jsonenc.Int("lp_seq", func(st *stateRec) *int { return &st.LpSeq }),
	jsonenc.Int("next_booking", func(st *stateRec) *int { return &st.NextBooking }),
	jsonenc.Int("next_pipe", func(st *stateRec) *int { return &st.NextPipe }),
	jsonenc.Sub("quotas,omitempty", func(st *stateRec) *[]quotaRec { return &st.Quotas }, quotaArr),
	jsonenc.Sub("down_links,omitempty", func(st *stateRec) *[]string { return &st.DownLinks }, names),
	jsonenc.Sub("conns,omitempty", func(st *stateRec) *[]connRec { return &st.Conns }, jsonenc.Array[connRec](connFields)),
	jsonenc.Sub("pipes,omitempty", func(st *stateRec) *[]pipeRec { return &st.Pipes }, jsonenc.Array[pipeRec](pipeFields)),
	jsonenc.Sub("bookings,omitempty", func(st *stateRec) *[]bookingRec { return &st.Bookings }, jsonenc.Array[bookingRec](bookingFields)),
}

// stateConns is the conns row of stateFields, which a snapshot streams and
// sizes by hand: the rows before it make the header, the rows after it the
// tail.
var stateConns = slices.IndexFunc(stateFields, func(f jsonenc.Field[stateRec]) bool { return f.Key == "conns" })

var connFields = jsonenc.Table[connRec]{
	jsonenc.Str("id", func(r *connRec) *string { return &r.ID }),
	jsonenc.Name("customer", func(r *connRec) *string { return &r.Customer }),
	jsonenc.Name("from,omitempty", func(r *connRec) *string { return &r.From }),
	jsonenc.Name("to,omitempty", func(r *connRec) *string { return &r.To }),
	jsonenc.Int64("rate", func(r *connRec) *int64 { return &r.Rate }),
	jsonenc.Int("layer", func(r *connRec) *int { return &r.Layer }),
	jsonenc.Int("protect", func(r *connRec) *int { return &r.Protect }),
	jsonenc.Int("state", func(r *connRec) *int { return &r.State }),
	jsonenc.Bool("internal,omitempty", func(r *connRec) *bool { return &r.Internal }),
	jsonenc.Bool("degraded,omitempty", func(r *connRec) *bool { return &r.Degraded }),
	jsonenc.Name("carries,omitempty", func(r *connRec) *string { return &r.Carries }),
	jsonenc.Bool("on_protect,omitempty", func(r *connRec) *bool { return &r.OnProtect }),
	jsonenc.Sub("path,omitempty", func(r *connRec) **lightpathRec { return &r.Path }, jsonenc.Ptr[lightpathRec]{To: lightpathFields}),
	jsonenc.Sub("protect_path,omitempty", func(r *connRec) **lightpathRec { return &r.ProtectPath }, jsonenc.Ptr[lightpathRec]{To: lightpathFields}),
	jsonenc.Sub("pipes,omitempty", func(r *connRec) *[]string { return &r.Pipes }, names),
	jsonenc.Int("slots,omitempty", func(r *connRec) *int { return &r.Slots }),
	jsonenc.Sub("backup,omitempty", func(r *connRec) *[]string { return &r.Backup }, names),
	jsonenc.Int64("requested_at", func(r *connRec) *int64 { return &r.RequestedAt }),
	jsonenc.Int64("active_at,omitempty", func(r *connRec) *int64 { return &r.ActiveAt }),
	jsonenc.Int64("released_at,omitempty", func(r *connRec) *int64 { return &r.ReleasedAt }),
	jsonenc.Int("restorations,omitempty", func(r *connRec) *int { return &r.Restorations }),
	jsonenc.Int("rolls,omitempty", func(r *connRec) *int { return &r.Rolls }),
}

// A lightpath's segment owners are unique to it and are not interned.
var lightpathFields = jsonenc.Table[lightpathRec]{
	jsonenc.Sub("route", func(r *lightpathRec) *rwa.Route { return &r.Route }, routeFields),
	jsonenc.Sub("ots", func(r *lightpathRec) *[2]string { return &r.OTs }, jsonenc.Pair{}),
	jsonenc.Sub("regens,omitempty", func(r *lightpathRec) *[]string { return &r.Regens }, names),
	jsonenc.Sub("ports_a", func(r *lightpathRec) *[2]string { return &r.PortsA }, jsonenc.Pair{}),
	jsonenc.Sub("ports_b", func(r *lightpathRec) *[2]string { return &r.PortsB }, jsonenc.Pair{}),
	jsonenc.Sub("seg_owners,omitempty", func(r *lightpathRec) *[]string { return &r.SegOwners }, jsonenc.Strings[string]{}),
}

// The route types carry no json tags: every member is its Go name, and a nil
// slice is null.
var routeFields = jsonenc.Table[rwa.Route]{
	jsonenc.Sub("Path", func(r *rwa.Route) *topo.Path { return &r.Path }, pathFields),
	jsonenc.Sub("Plan", func(r *rwa.Route) *optics.RegenPlan { return &r.Plan }, planFields),
	jsonenc.Sub("Channels,null", func(r *rwa.Route) *[]optics.Channel { return &r.Channels }, jsonenc.Ints[optics.Channel]{}),
}

var pathFields = jsonenc.Table[topo.Path]{
	jsonenc.Sub("Nodes,null", func(p *topo.Path) *[]topo.NodeID { return &p.Nodes }, nodeIDs),
	jsonenc.Sub("Links,null", func(p *topo.Path) *[]topo.LinkID { return &p.Links }, linkIDs),
}

var planFields = jsonenc.Table[optics.RegenPlan]{
	jsonenc.Sub("Segments,null", func(p *optics.RegenPlan) *[]optics.Segment { return &p.Segments }, jsonenc.Array[optics.Segment](segmentFields)),
	jsonenc.Sub("RegenNodes,null", func(p *optics.RegenPlan) *[]topo.NodeID { return &p.RegenNodes }, nodeIDs),
}

var segmentFields = jsonenc.Table[optics.Segment]{
	jsonenc.Sub("Links,null", func(g *optics.Segment) *[]topo.LinkID { return &g.Links }, linkIDs),
	jsonenc.Sub("KM", func(g *optics.Segment) *float64 { return &g.KM }, jsonenc.Float{}),
}

var pipeFields = jsonenc.Table[pipeRec]{
	jsonenc.Name("id", func(r *pipeRec) *string { return &r.ID }),
	jsonenc.Name("a", func(r *pipeRec) *string { return &r.A }),
	jsonenc.Name("b", func(r *pipeRec) *string { return &r.B }),
	jsonenc.Int("level", func(r *pipeRec) *int { return &r.Level }),
	jsonenc.Bool("up", func(r *pipeRec) *bool { return &r.Up }),
	jsonenc.Name("carrier,omitempty", func(r *pipeRec) *string { return &r.Carrier }),
}

var bookingFields = jsonenc.Table[bookingRec]{
	jsonenc.Int("id", func(r *bookingRec) *int { return &r.ID }),
	jsonenc.Name("customer", func(r *bookingRec) *string { return &r.Customer }),
	jsonenc.Name("from", func(r *bookingRec) *string { return &r.From }),
	jsonenc.Name("to", func(r *bookingRec) *string { return &r.To }),
	jsonenc.Int64("rate", func(r *bookingRec) *int64 { return &r.Rate }),
	jsonenc.Int("protect", func(r *bookingRec) *int { return &r.Protect }),
	jsonenc.Int64("at", func(r *bookingRec) *int64 { return &r.At }),
	jsonenc.Int64("hold", func(r *bookingRec) *int64 { return &r.Hold }),
	jsonenc.Int64("close_at,omitempty", func(r *bookingRec) *int64 { return &r.CloseAt }),
	jsonenc.Sub("conns,omitempty", func(r *bookingRec) *[]string { return &r.Conns }, jsonenc.Strings[string]{}),
	jsonenc.Int("phase", func(r *bookingRec) *int { return &r.Phase }),
	jsonenc.Str("setup_err,omitempty", func(r *bookingRec) *string { return &r.SetupErr }),
	jsonenc.Str("close_err,omitempty", func(r *bookingRec) *string { return &r.CloseErr }),
}

var quotaFields = jsonenc.Table[quotaRec]{
	jsonenc.Name("customer", func(r *quotaRec) *string { return &r.Customer }),
	jsonenc.Int("max_connections,omitempty", func(r *quotaRec) *int { return &r.MaxConnections }),
	jsonenc.Int64("max_bandwidth,omitempty", func(r *quotaRec) *int64 { return &r.MaxBandwidth }),
}

// appendState appends st, with the connections taken from next when it is
// non-nil (one record per call, nil after the last) and from st.Conns
// otherwise. With w non-nil, b is written to w and emptied whenever it
// reaches snapshotChunk bytes, so it never holds more than one chunk and one
// record; what is left in b at return is the caller's to write.
func appendState(b []byte, w io.Writer, st *stateRec, next func() *connRec) ([]byte, error) {
	b = stateFields[:stateConns].AppendMembers(append(b, '{'), st)
	sep := `,"conns":[`
	for i := 0; ; i++ {
		var r *connRec
		if next != nil {
			r = next()
		} else if i < len(st.Conns) {
			r = &st.Conns[i]
		}
		if r == nil {
			break
		}
		b = connFields.Append(append(b, sep...), r)
		sep = ","
		if w != nil && len(b) >= snapshotChunk {
			if _, err := w.Write(b); err != nil {
				return b[:0], err
			}
			b = b[:0]
		}
	}
	if sep == "," {
		b = append(b, ']')
	}
	return append(stateFields[stateConns+1:].AppendMembers(b, st), '}'), nil
}

// decodeState parses a state snapshot. extra is how many more connection
// records the caller expects to add; the conns slice is sized for them.
func decodeState(s *jsonenc.Scanner, data []byte, extra int) (stateRec, error) {
	var st stateRec
	err := s.Decode(data, func() {
		s.Expect('{')
		stateFields[:stateConns].ReadMembers(s, &st)
		if s.Field("conns") {
			// Records start `{"id":"`, as pipe records do, and nothing
			// before the conns holds one: an upper bound.
			st.Conns = make([]connRec, 0, bytes.Count(data, []byte(`{"id":"`))+extra)
			jsonenc.Array[connRec](connFields).Read(s, &st.Conns)
		}
		stateFields[stateConns+1:].ReadMembers(s, &st)
		s.Expect('}')
	})
	return st, err
}

// decodeCommit parses one commit record into r. r's top-level slices are
// reused: the fold copies each element out before the next record.
func decodeCommit(s *jsonenc.Scanner, data []byte, r *commitRec) error {
	*r = commitRec{Conns: r.Conns[:0], Pipes: r.Pipes[:0], DelPipes: r.DelPipes[:0], Bookings: r.Bookings[:0]}
	return s.Decode(data, func() { commitFields.Read(s, r) })
}
