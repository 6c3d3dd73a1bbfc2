package core

// Snapshot decoding. A state snapshot is mostly its conns array — one record
// per connection ever made — and recovery time is mostly decoding it, so that
// array is read by a scanner for exactly the bytes the record appenders
// (recenc.go: appendState, appendConnRec; equivalently encoding/json's Marshal
// of a stateRec) write:
//
//	conns  = "[" rec { "," rec } "]"
//	rec    = "{" [ field { "," field } ] "}"     fields in connRec order, each at most once
//	field  = `"id":` str | `"rate":` int | `"internal":` bool | `"pipes":` strs | `"path":` object | …
//	str    = JSON string; one holding a backslash or a non-ASCII byte is unquoted by encoding/json
//	int    = "-"? ( "0" | [1-9][0-9]* )           no fraction, no exponent, within int64
//	strs   = "[" [ str { "," str } ] "]"
//	object = the nested lightpath record, located here and decoded by encoding/json
//
// with no whitespace anywhere. The rest of the snapshot (clock, counters,
// quotas, down links, pipes, bookings) is small and goes through encoding/json
// with the conns member cut out. Anything outside this grammar is a corrupt
// snapshot. encoding/json on the whole snapshot is the reference the scanner
// is fuzzed against (FuzzScanState): whatever the scanner accepts, json decodes
// to the same stateRec, and whatever the appenders write, the scanner accepts.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

type stateScanner struct {
	b []byte
	i int
	// seen interns the strings that repeat from record to record (customer
	// and site names), so recovery keeps one copy of each.
	seen map[string]string
}

func (s *stateScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("at byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

// lit consumes c if it is next.
func (s *stateScanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *stateScanner) expect(c byte) error {
	if !s.lit(c) {
		return s.errorf("want %q", c)
	}
	return nil
}

// decodeSnapshot parses a state snapshot. extra is how many more connection
// records the caller expects to add; the conns slice is sized for them.
func decodeSnapshot(data []byte, extra int) (stateRec, error) {
	var st stateRec
	s := &stateScanner{b: data, seen: map[string]string{}}
	var conns []connRec
	cut := [2]int{-1, -1} // the conns member and one adjoining comma
	if err := s.expect('{'); err != nil {
		return st, err
	}
	for first := true; !s.lit('}'); first = false {
		member := s.i
		if !first {
			if err := s.expect(','); err != nil {
				return st, err
			}
		}
		key, plain, err := s.rawString()
		if err != nil {
			return st, err
		}
		if !plain {
			return st, s.errorf("escaped member name")
		}
		if err := s.expect(':'); err != nil {
			return st, err
		}
		if !bytes.EqualFold(key, []byte("conns")) {
			if err := s.skipValue(); err != nil {
				return st, err
			}
			continue
		}
		if cut[0] >= 0 || string(key) != "conns" {
			return st, s.errorf("second conns member")
		}
		// Records start `{"id":"`, as pipe records do: an upper bound.
		n := bytes.Count(s.b[s.i:], []byte(`{"id":"`))
		if conns, err = s.conns(make([]connRec, 0, n+extra)); err != nil {
			return st, err
		}
		cut = [2]int{member, s.i}
		if first && s.i < len(s.b) && s.b[s.i] == ',' {
			cut[1]++
		}
	}
	if s.i != len(s.b) {
		return st, s.errorf("data after the snapshot")
	}
	rest := data
	if cut[0] >= 0 {
		rest = append(data[:cut[0]:cut[0]], data[cut[1]:]...)
	}
	if err := json.Unmarshal(rest, &st); err != nil {
		return st, err
	}
	if cut[0] >= 0 {
		st.Conns = conns
	}
	return st, nil
}

// rawString consumes a JSON string and returns the bytes between its quotes.
// plain reports that they are the string's value as they stand: printable
// ASCII with no escapes.
func (s *stateScanner) rawString() (raw []byte, plain bool, err error) {
	if err := s.expect('"'); err != nil {
		return nil, false, err
	}
	start := s.i
	plain = true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], plain, nil
		case c == '\\':
			plain = false
			s.i++ // the escaped byte cannot close the string
		case c < 0x20:
			return nil, false, s.errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, s.errorf("unterminated string")
}

// skipValue consumes one JSON value without decoding it. It tracks strings
// and nesting only; encoding/json judges the bytes later.
func (s *stateScanner) skipValue() error {
	depth := 0
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case '"':
			if _, _, err := s.rawString(); err != nil {
				return err
			}
			if depth == 0 {
				return nil
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return nil // the enclosing value's close: a bare scalar ended
			}
			if depth--; depth == 0 {
				s.i++
				return nil
			}
		case ',':
			if depth == 0 {
				return nil
			}
		}
		s.i++
	}
	return s.errorf("unterminated value")
}

// str decodes a JSON string.
func (s *stateScanner) str() (string, error) {
	start := s.i
	raw, plain, err := s.rawString()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw), nil
	}
	var v string
	if err := json.Unmarshal(s.b[start:s.i], &v); err != nil {
		return "", err
	}
	return v, nil
}

// name decodes a JSON string that repeats across records, interned.
func (s *stateScanner) name() (string, error) {
	start := s.i
	raw, plain, err := s.rawString()
	if err != nil {
		return "", err
	}
	if plain {
		if v, ok := s.seen[string(raw)]; ok {
			return v, nil
		}
		v := string(raw)
		s.seen[v] = v
		return v, nil
	}
	s.i = start
	return s.str()
}

func (s *stateScanner) int() (int64, error) {
	neg := s.lit('-')
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, s.errorf("number out of range")
		}
		v = v*10 + d
	}
	switch {
	case s.i == start:
		return 0, s.errorf("want a number")
	case s.b[start] == '0' && s.i > start+1:
		return 0, s.errorf("leading zero")
	case neg && v <= 1<<63:
		return -int64(v), nil // -(1<<63) wraps onto itself
	case !neg && v <= math.MaxInt64:
		return int64(v), nil
	}
	return 0, s.errorf("number out of range")
}

func (s *stateScanner) bool() (bool, error) {
	switch {
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		s.i += 4
		return true, nil
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		s.i += 5
		return false, nil
	}
	return false, s.errorf("want true or false")
}

func (s *stateScanner) strs() ([]string, error) {
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := []string{}
	for first := true; !s.lit(']'); first = false {
		if !first {
			if err := s.expect(','); err != nil {
				return nil, err
			}
		}
		v, err := s.str()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// lightpath locates the nested lightpath object and leaves it to encoding/json.
func (s *stateScanner) lightpath() (*lightpathRec, error) {
	start := s.i
	if s.i >= len(s.b) || s.b[s.i] != '{' {
		return nil, s.errorf("want a lightpath object")
	}
	if err := s.skipValue(); err != nil {
		return nil, err
	}
	r := new(lightpathRec)
	if err := json.Unmarshal(s.b[start:s.i], r); err != nil {
		return nil, err
	}
	return r, nil
}

func (s *stateScanner) conns(out []connRec) ([]connRec, error) {
	if err := s.expect('['); err != nil {
		return nil, err
	}
	for first := true; !s.lit(']'); first = false {
		if !first {
			if err := s.expect(','); err != nil {
				return nil, err
			}
		}
		out = append(out, connRec{})
		if err := s.conn(&out[len(out)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// conn decodes one connection record: connRec's fields in declaration order.
func (s *stateScanner) conn(r *connRec) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	first := true
	// field consumes `"name":` (and the comma before it) when that is next.
	field := func(name string) bool {
		j := s.i
		if !first {
			if j == len(s.b) || s.b[j] != ',' {
				return false
			}
			j++
		}
		if len(s.b)-j < len(name) || string(s.b[j:j+len(name)]) != name {
			return false
		}
		s.i, first = j+len(name), false
		return true
	}
	// The setters share one error: the first failure sticks and the record
	// is rejected after the last field.
	var err error
	str := func(name string, dst *string, read func() (string, error)) {
		if err == nil && field(name) {
			*dst, err = read()
		}
	}
	i64 := func(name string, dst *int64) {
		if err == nil && field(name) {
			*dst, err = s.int()
		}
	}
	num := func(name string, dst *int) {
		var v int64
		if err == nil && field(name) {
			if v, err = s.int(); err == nil && int64(int(v)) != v {
				err = errors.New("number out of range")
			}
			*dst = int(v)
		}
	}
	flag := func(name string, dst *bool) {
		if err == nil && field(name) {
			*dst, err = s.bool()
		}
	}
	list := func(name string, dst *[]string) {
		if err == nil && field(name) {
			*dst, err = s.strs()
		}
	}
	lp := func(name string, dst **lightpathRec) {
		if err == nil && field(name) {
			*dst, err = s.lightpath()
		}
	}

	str(`"id":`, &r.ID, s.str)
	str(`"customer":`, &r.Customer, s.name)
	str(`"from":`, &r.From, s.name)
	str(`"to":`, &r.To, s.name)
	i64(`"rate":`, &r.Rate)
	num(`"layer":`, &r.Layer)
	num(`"protect":`, &r.Protect)
	num(`"state":`, &r.State)
	flag(`"internal":`, &r.Internal)
	flag(`"degraded":`, &r.Degraded)
	str(`"carries":`, &r.Carries, s.str)
	flag(`"on_protect":`, &r.OnProtect)
	lp(`"path":`, &r.Path)
	lp(`"protect_path":`, &r.ProtectPath)
	list(`"pipes":`, &r.Pipes)
	num(`"slots":`, &r.Slots)
	list(`"backup":`, &r.Backup)
	i64(`"requested_at":`, &r.RequestedAt)
	i64(`"active_at":`, &r.ActiveAt)
	i64(`"released_at":`, &r.ReleasedAt)
	num(`"restorations":`, &r.Restorations)
	num(`"rolls":`, &r.Rolls)
	if err != nil {
		return err
	}
	return s.expect('}')
}
