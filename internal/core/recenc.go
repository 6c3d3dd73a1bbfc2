package core

// The journal's record encoder. Every record the controller hands the journal
// — commit records and snapshots — and every canonical state DurableState and
// ReplayDurable return is written here, by hand and without reflection. The
// appenders emit exactly the bytes encoding/json's Marshal emits for the same
// record types: fields in declaration order under their json names, omitempty
// where the tag says so, null for a nil slice without omitempty (the route
// types carry no tags at all), encoding/json's float format and its HTML-safe
// string escaping. So no journal ever written changes meaning. scanstate.go is
// the read side, for the same bytes. encoding/json is the oracle both are held
// to in tests (FuzzRecordEncoding, FuzzScanState, FuzzScanCommit).

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"griphon/internal/optics"
	"griphon/internal/rwa"
)

// snapshotChunk is how many encoded bytes a snapshot gathers before it hands
// them to the journal in one write.
const snapshotChunk = 64 << 10

// appendCommitRec appends r as encoding/json would marshal it.
func appendCommitRec(b []byte, r *commitRec) []byte {
	b = appendKeyString(b, `{"reason":`, r.Reason)
	b = appendCounters(append(b, ','), r.Now, r.NextConn, r.LpSeq, r.NextBooking, r.NextPipe)
	if len(r.Conns) > 0 {
		b = appendElems(append(b, `,"conns":`...), r.Conns, appendConnRec)
	}
	if len(r.Pipes) > 0 {
		b = appendElems(append(b, `,"pipes":`...), r.Pipes, appendPipeRec)
	}
	if len(r.DelPipes) > 0 {
		b = appendStrs(append(b, `,"del_pipes":`...), r.DelPipes)
	}
	if len(r.Bookings) > 0 {
		b = appendElems(append(b, `,"bookings":`...), r.Bookings, appendBookingRec)
	}
	// omitempty drops a nil pointer only: a pointer to a nil slice is null.
	if r.DownLinks != nil {
		b = appendStrs(append(b, `,"down_links":`...), *r.DownLinks)
	}
	if r.Quotas != nil {
		b = appendElems(append(b, `,"quotas":`...), *r.Quotas, appendQuotaRec)
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
		b = appendElems(append(b, `,"quotas":`...), st.Quotas, appendQuotaRec)
	}
	if len(st.DownLinks) > 0 {
		b = appendStrs(append(b, `,"down_links":`...), st.DownLinks)
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
		b = appendElems(append(b, `,"pipes":`...), st.Pipes, appendPipeRec)
	}
	if len(st.Bookings) > 0 {
		b = appendElems(append(b, `,"bookings":`...), st.Bookings, appendBookingRec)
	}
	return append(b, '}'), nil
}

// appendCounters appends the clock and ID counters that open both a commit
// record and a state, without braces.
func appendCounters(b []byte, now int64, nextConn, lpSeq, nextBooking, nextPipe int) []byte {
	b = appendKeyInt(b, `"now":`, now)
	b = appendKeyInt(b, `,"next_conn":`, int64(nextConn))
	b = appendKeyInt(b, `,"lp_seq":`, int64(lpSeq))
	b = appendKeyInt(b, `,"next_booking":`, int64(nextBooking))
	return appendKeyInt(b, `,"next_pipe":`, int64(nextPipe))
}

func appendConnRec(b []byte, r *connRec) []byte {
	b = appendKeyString(b, `{"id":`, r.ID)
	b = appendKeyString(b, `,"customer":`, r.Customer)
	if r.From != "" {
		b = appendKeyString(b, `,"from":`, r.From)
	}
	if r.To != "" {
		b = appendKeyString(b, `,"to":`, r.To)
	}
	b = appendKeyInt(b, `,"rate":`, r.Rate)
	b = appendKeyInt(b, `,"layer":`, int64(r.Layer))
	b = appendKeyInt(b, `,"protect":`, int64(r.Protect))
	b = appendKeyInt(b, `,"state":`, int64(r.State))
	if r.Internal {
		b = append(b, `,"internal":true`...)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Carries != "" {
		b = appendKeyString(b, `,"carries":`, r.Carries)
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
		b = appendStrs(append(b, `,"pipes":`...), r.Pipes)
	}
	if r.Slots != 0 {
		b = appendKeyInt(b, `,"slots":`, int64(r.Slots))
	}
	if len(r.Backup) > 0 {
		b = appendStrs(append(b, `,"backup":`...), r.Backup)
	}
	b = appendKeyInt(b, `,"requested_at":`, r.RequestedAt)
	if r.ActiveAt != 0 {
		b = appendKeyInt(b, `,"active_at":`, r.ActiveAt)
	}
	if r.ReleasedAt != 0 {
		b = appendKeyInt(b, `,"released_at":`, r.ReleasedAt)
	}
	if r.Restorations != 0 {
		b = appendKeyInt(b, `,"restorations":`, int64(r.Restorations))
	}
	if r.Rolls != 0 {
		b = appendKeyInt(b, `,"rolls":`, int64(r.Rolls))
	}
	return append(b, '}')
}

func appendLightpathRec(b []byte, r *lightpathRec) []byte {
	b = appendRoute(append(b, `{"route":`...), &r.Route)
	b = appendStrs(append(b, `,"ots":`...), r.OTs[:])
	if len(r.Regens) > 0 {
		b = appendStrs(append(b, `,"regens":`...), r.Regens)
	}
	b = appendStrs(append(b, `,"ports_a":`...), r.PortsA[:])
	b = appendStrs(append(b, `,"ports_b":`...), r.PortsB[:])
	if len(r.SegOwners) > 0 {
		b = appendStrs(append(b, `,"seg_owners":`...), r.SegOwners)
	}
	return append(b, '}')
}

// appendRoute appends an rwa.Route. The route types carry no json tags: every
// field prints under its Go name, and a nil slice prints null.
func appendRoute(b []byte, r *rwa.Route) []byte {
	b = appendStrs(append(b, `{"Path":{"Nodes":`...), r.Path.Nodes)
	b = appendStrs(append(b, `,"Links":`...), r.Path.Links)
	b = appendElems(append(b, `},"Plan":{"Segments":`...), r.Plan.Segments, appendSegment)
	b = appendStrs(append(b, `,"RegenNodes":`...), r.Plan.RegenNodes)
	b = appendElems(append(b, `},"Channels":`...), r.Channels, appendChannel)
	return append(b, '}')
}

func appendSegment(b []byte, s *optics.Segment) []byte {
	b = appendStrs(append(b, `{"Links":`...), s.Links)
	b = appendFloat(append(b, `,"KM":`...), s.KM)
	return append(b, '}')
}

func appendChannel(b []byte, ch *optics.Channel) []byte {
	return strconv.AppendInt(b, int64(*ch), 10)
}

func appendPipeRec(b []byte, r *pipeRec) []byte {
	b = appendKeyString(b, `{"id":`, r.ID)
	b = appendKeyString(b, `,"a":`, r.A)
	b = appendKeyString(b, `,"b":`, r.B)
	b = appendKeyInt(b, `,"level":`, int64(r.Level))
	b = strconv.AppendBool(append(b, `,"up":`...), r.Up)
	if r.Carrier != "" {
		b = appendKeyString(b, `,"carrier":`, r.Carrier)
	}
	return append(b, '}')
}

func appendBookingRec(b []byte, r *bookingRec) []byte {
	b = appendKeyInt(b, `{"id":`, int64(r.ID))
	b = appendKeyString(b, `,"customer":`, r.Customer)
	b = appendKeyString(b, `,"from":`, r.From)
	b = appendKeyString(b, `,"to":`, r.To)
	b = appendKeyInt(b, `,"rate":`, r.Rate)
	b = appendKeyInt(b, `,"protect":`, int64(r.Protect))
	b = appendKeyInt(b, `,"at":`, r.At)
	b = appendKeyInt(b, `,"hold":`, r.Hold)
	if r.CloseAt != 0 {
		b = appendKeyInt(b, `,"close_at":`, r.CloseAt)
	}
	if len(r.Conns) > 0 {
		b = appendStrs(append(b, `,"conns":`...), r.Conns)
	}
	b = appendKeyInt(b, `,"phase":`, int64(r.Phase))
	if r.SetupErr != "" {
		b = appendKeyString(b, `,"setup_err":`, r.SetupErr)
	}
	if r.CloseErr != "" {
		b = appendKeyString(b, `,"close_err":`, r.CloseErr)
	}
	return append(b, '}')
}

func appendQuotaRec(b []byte, r *quotaRec) []byte {
	b = appendKeyString(b, `{"customer":`, r.Customer)
	if r.MaxConnections != 0 {
		b = appendKeyInt(b, `,"max_connections":`, int64(r.MaxConnections))
	}
	if r.MaxBandwidth != 0 {
		b = appendKeyInt(b, `,"max_bandwidth":`, r.MaxBandwidth)
	}
	return append(b, '}')
}

// appendElems appends s as a JSON array, one elem call per element; a nil
// slice is null.
func appendElems[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendStrs appends s as a JSON array of strings; a nil slice is null.
func appendStrs[S ~string](b []byte, s []S) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, string(v))
	}
	return append(b, ']')
}

func appendKeyInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendKeyString(b []byte, key, s string) []byte {
	return appendString(append(b, key...), s)
}

// appendFloat appends f in encoding/json's format: the shortest 'f' form,
// switching to 'e' below 1e-6 and from 1e21, with a one-digit negative
// exponent unpadded. f is finite: a segment's length is a sum of link lengths,
// which topo keeps finite and positive.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII with nothing to
// escape — every ID, site and customer name the controller makes — is copied
// as it stands; anything else takes appendEscaped.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEscaped appends s as a JSON string escaped exactly as encoding/json
// escapes it: `"` and `\` by backslash, \b \f \n \r \t by name, other control
// bytes and the HTML-sensitive <, > and & as \u00XX, U+2028 and U+2029 as
// \u202X, and each byte of invalid UTF-8 as \ufffd.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
