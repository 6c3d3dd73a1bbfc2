package core

// Journal record decoding, the read-side mirror of recenc.go. Recovery time is
// decoding: the snapshot (mostly its conns array, one record per connection
// ever made) and then every WAL commit record after it. Both are read by one
// scanner for exactly the bytes the record appenders (equivalently
// encoding/json's Marshal of a stateRec or a commitRec) write:
//
//	record = "{" [ member { "," member } ] "}"   members in declaration order, each optional, at most once
//	member = `"name":` value                     the json tag's name; the untagged route types' Go names
//	str    = JSON string; one holding a backslash or a non-ASCII byte is unquoted by encoding/json
//	int    = "-"? ( "0" | [1-9][0-9]* )           no fraction, no exponent, within the field's type
//	float  = a JSON number within float64         a segment's KM only
//	bool   = "true" | "false"
//	array  = "[" [ value { "," value } ] "]"      exactly two strings for a [2]string
//	null   = "null"                               only where the appenders write one: a nil route
//	                                              slice, and a commit's down_links or quotas
//
// with no whitespace anywhere. Anything outside this grammar is a corrupt
// record. A null reads as encoding/json reads it: a nil slice, or a nil
// pointer, which in a commit record means "unchanged". encoding/json on the
// same bytes is the reference the scanner is fuzzed against (FuzzScanState,
// FuzzScanCommit): whatever the scanner accepts, json decodes to the same
// record, and whatever the appenders write, the scanner accepts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/topo"
)

// stateScanner decodes journal records. One scanner serves a whole replay:
// the snapshot and then each commit record, in turn.
type stateScanner struct {
	b []byte
	i int
	// err is the first failure; every read after it is a no-op.
	err error
	// seen interns the strings that repeat from record to record (customer,
	// site, node, link, port and pipe names), so recovery keeps one copy of
	// each.
	seen map[string]string
}

func newStateScanner() *stateScanner {
	return &stateScanner{seen: map[string]string{}}
}

// decode reads one whole record from data with read.
func (s *stateScanner) decode(data []byte, read func()) error {
	s.b, s.i, s.err = data, 0, nil
	read()
	if s.err == nil && s.i != len(s.b) {
		s.fail("data after the record")
	}
	return s.err
}

// decodeState parses a state snapshot. extra is how many more connection
// records the caller expects to add; the conns slice is sized for them.
func (s *stateScanner) decodeState(data []byte, extra int) (stateRec, error) {
	var st stateRec
	err := s.decode(data, func() { s.state(&st, extra) })
	return st, err
}

// decodeCommit parses one commit record into r. r's top-level slices are
// reused: the fold copies each element out before the next record.
func (s *stateScanner) decodeCommit(data []byte, r *commitRec) error {
	*r = commitRec{Conns: r.Conns[:0], Pipes: r.Pipes[:0], DelPipes: r.DelPipes[:0], Bookings: r.Bookings[:0]}
	return s.decode(data, func() { s.commit(r) })
}

func (s *stateScanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("at byte %d: %s", s.i, fmt.Sprintf(format, args...))
	}
}

// lit consumes c if it is next.
func (s *stateScanner) lit(c byte) bool {
	if s.err == nil && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *stateScanner) expect(c byte) {
	if !s.lit(c) {
		s.fail("want %q", c)
	}
}

// field consumes `"name":`, and the comma before it unless it opens the
// object, when that is next. The byte before the cursor is the object's '{'
// exactly when no member has been read yet: no value ends in one.
func (s *stateScanner) field(name string) bool {
	if s.err != nil {
		return false
	}
	j := s.i
	if s.b[j-1] != '{' {
		if j == len(s.b) || s.b[j] != ',' {
			return false
		}
		j++
	}
	if len(s.b)-j < len(name) || string(s.b[j:j+len(name)]) != name {
		return false
	}
	s.i = j + len(name)
	return true
}

// null consumes a null if it is next.
func (s *stateScanner) null() bool {
	if s.err == nil && bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// rawString consumes a JSON string and returns the bytes between its quotes.
// plain reports that they are the string's value as they stand: printable
// ASCII with no escapes.
func (s *stateScanner) rawString() (raw []byte, plain bool) {
	s.expect('"')
	if s.err != nil {
		return nil, false
	}
	start := s.i
	plain = true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], plain
		case c == '\\':
			plain = false
			s.i++ // the escaped byte cannot close the string
		case c < 0x20:
			s.fail("control character in string")
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	s.fail("unterminated string")
	return nil, false
}

// str decodes a JSON string.
func (s *stateScanner) str() string {
	start := s.i
	raw, plain := s.rawString()
	if s.err != nil || plain {
		return string(raw)
	}
	var v string
	if err := json.Unmarshal(s.b[start:s.i], &v); err != nil {
		s.fail("%v", err)
	}
	return v
}

// name decodes a JSON string that repeats across records, interned by its
// bytes as they stand: an escaped one is unquoted once.
func (s *stateScanner) name() string {
	start := s.i
	raw, plain := s.rawString()
	if s.err != nil {
		return ""
	}
	if v, ok := s.seen[string(raw)]; ok {
		return v
	}
	key, v := string(raw), ""
	if plain {
		v = key
	} else {
		end := s.i
		s.i = start
		v = s.str()
		s.i = end
	}
	s.seen[key] = v
	return v
}

// digits consumes a run of decimal digits and reports how many there were.
func (s *stateScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

func (s *stateScanner) int() int64 {
	if s.err != nil {
		return 0
	}
	neg := s.lit('-')
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		// Past this bound one more digit leaves the int64 range, and v*10+9
		// stays far inside uint64 below it.
		if v > 1<<63/10 {
			s.fail("number out of range")
			return 0
		}
		v = v*10 + uint64(s.b[s.i]-'0')
	}
	switch {
	case s.i == start:
		s.fail("want a number")
	case s.b[start] == '0' && s.i > start+1:
		s.fail("leading zero")
	case neg && v <= 1<<63:
		return -int64(v) // -(1<<63) wraps onto itself
	case !neg && v <= math.MaxInt64:
		return int64(v)
	default:
		s.fail("number out of range")
	}
	return 0
}

// num decodes an int-typed field.
func (s *stateScanner) num() int {
	v := s.int()
	if int64(int(v)) != v {
		s.fail("number out of range")
	}
	return int(v)
}

// float decodes a JSON number as encoding/json does for a float64.
func (s *stateScanner) float() float64 {
	if s.err != nil {
		return 0
	}
	start := s.i
	s.lit('-')
	switch {
	case s.lit('0'):
	case s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9':
		s.digits()
	default:
		s.fail("want a number")
		return 0
	}
	if s.lit('.') && s.digits() == 0 {
		s.fail("want a fraction")
	}
	if s.lit('e') || s.lit('E') {
		if !s.lit('+') {
			s.lit('-')
		}
		if s.digits() == 0 {
			s.fail("want an exponent")
		}
	}
	if s.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.fail("%v", err)
	}
	return f
}

func (s *stateScanner) bool() bool {
	switch {
	case s.err != nil:
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		s.i += 4
		return true
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		s.i += 5
	default:
		s.fail("want true or false")
	}
	return false
}

// array decodes a JSON array onto the end of out, one elem call per element,
// each on a zeroed slot. Like encoding/json's, the result is never nil.
func array[T any](s *stateScanner, out []T, elem func(*T)) []T {
	s.expect('[')
	if out == nil {
		out = []T{}
	}
	for n := 0; s.err == nil && !s.lit(']'); n++ {
		if n > 0 {
			s.expect(',')
		}
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
	}
	return out
}

// names decodes an array of interned strings.
func names[S ~string](s *stateScanner) []S {
	return array(s, nil, func(v *S) { *v = S(s.name()) })
}

// nullNames decodes an array of interned strings that may be null: a nil
// slice, which the untagged route types write as null.
func nullNames[S ~string](s *stateScanner) []S {
	if s.null() {
		return nil
	}
	return names[S](s)
}

// pair decodes a two-string array into a [2]string.
func (s *stateScanner) pair(dst *[2]string) {
	s.expect('[')
	dst[0] = s.name()
	s.expect(',')
	dst[1] = s.name()
	s.expect(']')
}

// The member readers decode member name into dst when it is next, and leave
// dst as it is otherwise.

func (s *stateScanner) strAt(name string, dst *string) {
	if s.field(name) {
		*dst = s.str()
	}
}

func (s *stateScanner) nameAt(name string, dst *string) {
	if s.field(name) {
		*dst = s.name()
	}
}

func (s *stateScanner) intAt(name string, dst *int64) {
	if s.field(name) {
		*dst = s.int()
	}
}

func (s *stateScanner) numAt(name string, dst *int) {
	if s.field(name) {
		*dst = s.num()
	}
}

func (s *stateScanner) boolAt(name string, dst *bool) {
	if s.field(name) {
		*dst = s.bool()
	}
}

// state decodes a snapshot: stateRec's members in declaration order.
func (s *stateScanner) state(st *stateRec, extra int) {
	s.expect('{')
	s.intAt(`"now":`, &st.Now)
	s.numAt(`"next_conn":`, &st.NextConn)
	s.numAt(`"lp_seq":`, &st.LpSeq)
	s.numAt(`"next_booking":`, &st.NextBooking)
	s.numAt(`"next_pipe":`, &st.NextPipe)
	if s.field(`"quotas":`) {
		st.Quotas = array(s, nil, s.quota)
	}
	if s.field(`"down_links":`) {
		st.DownLinks = names[string](s)
	}
	if s.field(`"conns":`) {
		// Records start `{"id":"`, as pipe records do: an upper bound.
		n := bytes.Count(s.b[s.i:], []byte(`{"id":"`))
		st.Conns = array(s, make([]connRec, 0, n+extra), s.conn)
	}
	if s.field(`"pipes":`) {
		st.Pipes = array(s, nil, s.pipe)
	}
	if s.field(`"bookings":`) {
		st.Bookings = array(s, nil, s.booking)
	}
	s.expect('}')
}

// commit decodes a commit record: commitRec's members in declaration order.
func (s *stateScanner) commit(r *commitRec) {
	s.expect('{')
	s.nameAt(`"reason":`, &r.Reason)
	s.intAt(`"now":`, &r.Now)
	s.numAt(`"next_conn":`, &r.NextConn)
	s.numAt(`"lp_seq":`, &r.LpSeq)
	s.numAt(`"next_booking":`, &r.NextBooking)
	s.numAt(`"next_pipe":`, &r.NextPipe)
	if s.field(`"conns":`) {
		r.Conns = array(s, r.Conns, s.conn)
	}
	if s.field(`"pipes":`) {
		r.Pipes = array(s, r.Pipes, s.pipe)
	}
	if s.field(`"del_pipes":`) {
		r.DelPipes = array(s, r.DelPipes, func(v *string) { *v = s.name() })
	}
	if s.field(`"bookings":`) {
		r.Bookings = array(s, r.Bookings, s.booking)
	}
	if s.field(`"down_links":`) && !s.null() {
		dl := names[string](s)
		r.DownLinks = &dl
	}
	if s.field(`"quotas":`) && !s.null() {
		q := array(s, nil, s.quota)
		r.Quotas = &q
	}
	s.expect('}')
}

func (s *stateScanner) conn(r *connRec) {
	s.expect('{')
	s.strAt(`"id":`, &r.ID)
	s.nameAt(`"customer":`, &r.Customer)
	s.nameAt(`"from":`, &r.From)
	s.nameAt(`"to":`, &r.To)
	s.intAt(`"rate":`, &r.Rate)
	s.numAt(`"layer":`, &r.Layer)
	s.numAt(`"protect":`, &r.Protect)
	s.numAt(`"state":`, &r.State)
	s.boolAt(`"internal":`, &r.Internal)
	s.boolAt(`"degraded":`, &r.Degraded)
	s.nameAt(`"carries":`, &r.Carries)
	s.boolAt(`"on_protect":`, &r.OnProtect)
	if s.field(`"path":`) {
		r.Path = s.lightpath()
	}
	if s.field(`"protect_path":`) {
		r.ProtectPath = s.lightpath()
	}
	if s.field(`"pipes":`) {
		r.Pipes = names[string](s)
	}
	s.numAt(`"slots":`, &r.Slots)
	if s.field(`"backup":`) {
		r.Backup = names[string](s)
	}
	s.intAt(`"requested_at":`, &r.RequestedAt)
	s.intAt(`"active_at":`, &r.ActiveAt)
	s.intAt(`"released_at":`, &r.ReleasedAt)
	s.numAt(`"restorations":`, &r.Restorations)
	s.numAt(`"rolls":`, &r.Rolls)
	s.expect('}')
}

// lightpath decodes one lightpath record. Its segment owners are unique to
// it and are not interned.
func (s *stateScanner) lightpath() *lightpathRec {
	r := new(lightpathRec)
	s.expect('{')
	if s.field(`"route":`) {
		s.route(&r.Route)
	}
	if s.field(`"ots":`) {
		s.pair(&r.OTs)
	}
	if s.field(`"regens":`) {
		r.Regens = names[string](s)
	}
	if s.field(`"ports_a":`) {
		s.pair(&r.PortsA)
	}
	if s.field(`"ports_b":`) {
		s.pair(&r.PortsB)
	}
	if s.field(`"seg_owners":`) {
		r.SegOwners = array(s, nil, func(v *string) { *v = s.str() })
	}
	s.expect('}')
	return r
}

// route decodes an rwa.Route: untagged, so every member is its Go name and a
// nil slice is null.
func (s *stateScanner) route(r *rwa.Route) {
	s.expect('{')
	if s.field(`"Path":`) {
		s.expect('{')
		if s.field(`"Nodes":`) {
			r.Path.Nodes = nullNames[topo.NodeID](s)
		}
		if s.field(`"Links":`) {
			r.Path.Links = nullNames[topo.LinkID](s)
		}
		s.expect('}')
	}
	if s.field(`"Plan":`) {
		s.expect('{')
		if s.field(`"Segments":`) && !s.null() {
			r.Plan.Segments = array(s, nil, s.segment)
		}
		if s.field(`"RegenNodes":`) {
			r.Plan.RegenNodes = nullNames[topo.NodeID](s)
		}
		s.expect('}')
	}
	if s.field(`"Channels":`) && !s.null() {
		r.Channels = array(s, nil, func(ch *optics.Channel) { *ch = optics.Channel(s.num()) })
	}
	s.expect('}')
}

func (s *stateScanner) segment(g *optics.Segment) {
	s.expect('{')
	if s.field(`"Links":`) {
		g.Links = nullNames[topo.LinkID](s)
	}
	if s.field(`"KM":`) {
		g.KM = s.float()
	}
	s.expect('}')
}

func (s *stateScanner) pipe(r *pipeRec) {
	s.expect('{')
	s.nameAt(`"id":`, &r.ID)
	s.nameAt(`"a":`, &r.A)
	s.nameAt(`"b":`, &r.B)
	s.numAt(`"level":`, &r.Level)
	s.boolAt(`"up":`, &r.Up)
	s.nameAt(`"carrier":`, &r.Carrier)
	s.expect('}')
}

func (s *stateScanner) booking(r *bookingRec) {
	s.expect('{')
	s.numAt(`"id":`, &r.ID)
	s.nameAt(`"customer":`, &r.Customer)
	s.nameAt(`"from":`, &r.From)
	s.nameAt(`"to":`, &r.To)
	s.intAt(`"rate":`, &r.Rate)
	s.numAt(`"protect":`, &r.Protect)
	s.intAt(`"at":`, &r.At)
	s.intAt(`"hold":`, &r.Hold)
	s.intAt(`"close_at":`, &r.CloseAt)
	if s.field(`"conns":`) {
		r.Conns = array(s, nil, func(v *string) { *v = s.str() })
	}
	s.numAt(`"phase":`, &r.Phase)
	s.strAt(`"setup_err":`, &r.SetupErr)
	s.strAt(`"close_err":`, &r.CloseErr)
	s.expect('}')
}

func (s *stateScanner) quota(r *quotaRec) {
	s.expect('{')
	s.nameAt(`"customer":`, &r.Customer)
	s.numAt(`"max_connections":`, &r.MaxConnections)
	s.intAt(`"max_bandwidth":`, &r.MaxBandwidth)
	s.expect('}')
}
