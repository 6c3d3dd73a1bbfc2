package core

// The journal's record encoder. Every record the controller hands the journal
// — commit records and snapshots — and every canonical state DurableState and
// ReplayDurable return is written here, by hand and without reflection. The
// appenders emit exactly the bytes encoding/json's Marshal emits for the same
// record types: fields in declaration order under their json names, omitempty
// where the tag says so, null for a nil slice without omitempty (the route
// types carry no tags at all), encoding/json's float format and its HTML-safe
// string escaping, the last two from internal/jsonenc, which the API's response
// appenders share. So no journal ever written changes meaning. scanstate.go is
// the read side, for the same bytes. encoding/json is the oracle both are held
// to in tests (FuzzRecordEncoding, FuzzScanState, FuzzScanCommit).

import (
	"io"
	"strconv"

	"griphon/internal/jsonenc"
	"griphon/internal/optics"
	"griphon/internal/rwa"
)

// snapshotChunk is how many encoded bytes a snapshot gathers before it hands
// them to the journal in one write.
const snapshotChunk = 64 << 10

// appendCommitRec appends r as encoding/json would marshal it.
func appendCommitRec(b []byte, r *commitRec) []byte {
	b = jsonenc.AppendKeyString(b, `{"reason":`, r.Reason)
	b = appendCounters(append(b, ','), r.Now, r.NextConn, r.LpSeq, r.NextBooking, r.NextPipe)
	if len(r.Conns) > 0 {
		b = jsonenc.AppendElems(append(b, `,"conns":`...), r.Conns, appendConnRec)
	}
	if len(r.Pipes) > 0 {
		b = jsonenc.AppendElems(append(b, `,"pipes":`...), r.Pipes, appendPipeRec)
	}
	if len(r.DelPipes) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"del_pipes":`...), r.DelPipes)
	}
	if len(r.Bookings) > 0 {
		b = jsonenc.AppendElems(append(b, `,"bookings":`...), r.Bookings, appendBookingRec)
	}
	// omitempty drops a nil pointer only: a pointer to a nil slice is null.
	if r.DownLinks != nil {
		b = jsonenc.AppendStrings(append(b, `,"down_links":`...), *r.DownLinks)
	}
	if r.Quotas != nil {
		b = jsonenc.AppendElems(append(b, `,"quotas":`...), *r.Quotas, appendQuotaRec)
	}
	return append(b, '}')
}

// appendState appends st as encoding/json would marshal it, with the
// connections taken from next when it is non-nil (one record per call, nil
// after the last) and from st.Conns otherwise. With w non-nil, b is written to w and emptied
// whenever it reaches snapshotChunk bytes, so it never holds more than one
// chunk and one record; what is left in b at return is the caller's to write.
func appendState(b []byte, w io.Writer, st *stateRec, next func() *connRec) ([]byte, error) {
	if next == nil {
		i := 0
		next = func() *connRec {
			if i == len(st.Conns) {
				return nil
			}
			i++
			return &st.Conns[i-1]
		}
	}
	b = appendCounters(append(b, '{'), st.Now, st.NextConn, st.LpSeq, st.NextBooking, st.NextPipe)
	if len(st.Quotas) > 0 {
		b = jsonenc.AppendElems(append(b, `,"quotas":`...), st.Quotas, appendQuotaRec)
	}
	if len(st.DownLinks) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"down_links":`...), st.DownLinks)
	}
	sep := `,"conns":[`
	for r := next(); r != nil; r = next() {
		b = appendConnRec(append(b, sep...), r)
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
	if len(st.Pipes) > 0 {
		b = jsonenc.AppendElems(append(b, `,"pipes":`...), st.Pipes, appendPipeRec)
	}
	if len(st.Bookings) > 0 {
		b = jsonenc.AppendElems(append(b, `,"bookings":`...), st.Bookings, appendBookingRec)
	}
	return append(b, '}'), nil
}

// appendCounters appends the clock and ID counters that open both a commit
// record and a state, without braces.
func appendCounters(b []byte, now int64, nextConn, lpSeq, nextBooking, nextPipe int) []byte {
	b = jsonenc.AppendKeyInt(b, `"now":`, now)
	b = jsonenc.AppendKeyInt(b, `,"next_conn":`, int64(nextConn))
	b = jsonenc.AppendKeyInt(b, `,"lp_seq":`, int64(lpSeq))
	b = jsonenc.AppendKeyInt(b, `,"next_booking":`, int64(nextBooking))
	return jsonenc.AppendKeyInt(b, `,"next_pipe":`, int64(nextPipe))
}

func appendConnRec(b []byte, r *connRec) []byte {
	b = jsonenc.AppendKeyString(b, `{"id":`, r.ID)
	b = jsonenc.AppendKeyString(b, `,"customer":`, r.Customer)
	if r.From != "" {
		b = jsonenc.AppendKeyString(b, `,"from":`, r.From)
	}
	if r.To != "" {
		b = jsonenc.AppendKeyString(b, `,"to":`, r.To)
	}
	b = jsonenc.AppendKeyInt(b, `,"rate":`, r.Rate)
	b = jsonenc.AppendKeyInt(b, `,"layer":`, int64(r.Layer))
	b = jsonenc.AppendKeyInt(b, `,"protect":`, int64(r.Protect))
	b = jsonenc.AppendKeyInt(b, `,"state":`, int64(r.State))
	if r.Internal {
		b = append(b, `,"internal":true`...)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Carries != "" {
		b = jsonenc.AppendKeyString(b, `,"carries":`, r.Carries)
	}
	if r.OnProtect {
		b = append(b, `,"on_protect":true`...)
	}
	if r.Path != nil {
		b = appendLightpathRec(append(b, `,"path":`...), r.Path)
	}
	if r.ProtectPath != nil {
		b = appendLightpathRec(append(b, `,"protect_path":`...), r.ProtectPath)
	}
	if len(r.Pipes) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"pipes":`...), r.Pipes)
	}
	if r.Slots != 0 {
		b = jsonenc.AppendKeyInt(b, `,"slots":`, int64(r.Slots))
	}
	if len(r.Backup) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"backup":`...), r.Backup)
	}
	b = jsonenc.AppendKeyInt(b, `,"requested_at":`, r.RequestedAt)
	if r.ActiveAt != 0 {
		b = jsonenc.AppendKeyInt(b, `,"active_at":`, r.ActiveAt)
	}
	if r.ReleasedAt != 0 {
		b = jsonenc.AppendKeyInt(b, `,"released_at":`, r.ReleasedAt)
	}
	if r.Restorations != 0 {
		b = jsonenc.AppendKeyInt(b, `,"restorations":`, int64(r.Restorations))
	}
	if r.Rolls != 0 {
		b = jsonenc.AppendKeyInt(b, `,"rolls":`, int64(r.Rolls))
	}
	return append(b, '}')
}

func appendLightpathRec(b []byte, r *lightpathRec) []byte {
	b = appendRoute(append(b, `{"route":`...), &r.Route)
	b = jsonenc.AppendStrings(append(b, `,"ots":`...), r.OTs[:])
	if len(r.Regens) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"regens":`...), r.Regens)
	}
	b = jsonenc.AppendStrings(append(b, `,"ports_a":`...), r.PortsA[:])
	b = jsonenc.AppendStrings(append(b, `,"ports_b":`...), r.PortsB[:])
	if len(r.SegOwners) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"seg_owners":`...), r.SegOwners)
	}
	return append(b, '}')
}

// appendRoute appends an rwa.Route. The route types carry no json tags: every
// field prints under its Go name, and a nil slice prints null.
func appendRoute(b []byte, r *rwa.Route) []byte {
	b = jsonenc.AppendStrings(append(b, `{"Path":{"Nodes":`...), r.Path.Nodes)
	b = jsonenc.AppendStrings(append(b, `,"Links":`...), r.Path.Links)
	b = jsonenc.AppendElems(append(b, `},"Plan":{"Segments":`...), r.Plan.Segments, appendSegment)
	b = jsonenc.AppendStrings(append(b, `,"RegenNodes":`...), r.Plan.RegenNodes)
	b = jsonenc.AppendElems(append(b, `},"Channels":`...), r.Channels, appendChannel)
	return append(b, '}')
}

func appendSegment(b []byte, s *optics.Segment) []byte {
	b = jsonenc.AppendStrings(append(b, `{"Links":`...), s.Links)
	b = jsonenc.AppendFloat(append(b, `,"KM":`...), s.KM)
	return append(b, '}')
}

func appendChannel(b []byte, ch *optics.Channel) []byte {
	return strconv.AppendInt(b, int64(*ch), 10)
}

func appendPipeRec(b []byte, r *pipeRec) []byte {
	b = jsonenc.AppendKeyString(b, `{"id":`, r.ID)
	b = jsonenc.AppendKeyString(b, `,"a":`, r.A)
	b = jsonenc.AppendKeyString(b, `,"b":`, r.B)
	b = jsonenc.AppendKeyInt(b, `,"level":`, int64(r.Level))
	b = strconv.AppendBool(append(b, `,"up":`...), r.Up)
	if r.Carrier != "" {
		b = jsonenc.AppendKeyString(b, `,"carrier":`, r.Carrier)
	}
	return append(b, '}')
}

func appendBookingRec(b []byte, r *bookingRec) []byte {
	b = jsonenc.AppendKeyInt(b, `{"id":`, int64(r.ID))
	b = jsonenc.AppendKeyString(b, `,"customer":`, r.Customer)
	b = jsonenc.AppendKeyString(b, `,"from":`, r.From)
	b = jsonenc.AppendKeyString(b, `,"to":`, r.To)
	b = jsonenc.AppendKeyInt(b, `,"rate":`, r.Rate)
	b = jsonenc.AppendKeyInt(b, `,"protect":`, int64(r.Protect))
	b = jsonenc.AppendKeyInt(b, `,"at":`, r.At)
	b = jsonenc.AppendKeyInt(b, `,"hold":`, r.Hold)
	if r.CloseAt != 0 {
		b = jsonenc.AppendKeyInt(b, `,"close_at":`, r.CloseAt)
	}
	if len(r.Conns) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"conns":`...), r.Conns)
	}
	b = jsonenc.AppendKeyInt(b, `,"phase":`, int64(r.Phase))
	if r.SetupErr != "" {
		b = jsonenc.AppendKeyString(b, `,"setup_err":`, r.SetupErr)
	}
	if r.CloseErr != "" {
		b = jsonenc.AppendKeyString(b, `,"close_err":`, r.CloseErr)
	}
	return append(b, '}')
}

func appendQuotaRec(b []byte, r *quotaRec) []byte {
	b = jsonenc.AppendKeyString(b, `{"customer":`, r.Customer)
	if r.MaxConnections != 0 {
		b = jsonenc.AppendKeyInt(b, `,"max_connections":`, int64(r.MaxConnections))
	}
	if r.MaxBandwidth != 0 {
		b = jsonenc.AppendKeyInt(b, `,"max_bandwidth":`, r.MaxBandwidth)
	}
	return append(b, '}')
}
