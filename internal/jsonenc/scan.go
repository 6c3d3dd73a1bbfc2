package jsonenc

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// A Scanner decodes records, one after another, and interns the strings read
// as names, so that a replay keeps one copy of each.
type Scanner struct {
	b []byte
	i int
	// err is the first failure; every read after it is a no-op.
	err  error
	seen map[string]string
	// member is where the value of the member key last found starts.
	member int
}

func NewScanner() *Scanner { return &Scanner{seen: map[string]string{}} }

// Decode reads one whole value from data with read, which calls the
// scanner's readers; anything after the value is an error.
func (s *Scanner) Decode(data []byte, read func()) error {
	s.b, s.i, s.err = data, 0, nil
	read()
	if s.err == nil && s.i != len(s.b) {
		s.fail("data after the record")
	}
	return s.err
}

func (s *Scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("at byte %d: %s", s.i, fmt.Sprintf(format, args...))
	}
}

// lit consumes c if it is next.
func (s *Scanner) lit(c byte) bool {
	if s.err == nil && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word consumes w if it is next.
func (s *Scanner) word(w string) bool {
	if s.err == nil && len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// Expect consumes c, which must be next.
func (s *Scanner) Expect(c byte) {
	if !s.lit(c) {
		s.fail("want %q", c)
	}
}

// key returns the name of the member at the cursor, `"name":` after a comma
// unless it opens the object, or nil; the member's value starts at s.member.
// The byte before the cursor is the object's '{' exactly when no member has
// been read yet: no value ends in one.
func (s *Scanner) key() []byte {
	i := s.i
	if s.err != nil || i == len(s.b) || s.b[i-1] != '{' && s.b[i] != ',' {
		return nil
	}
	if s.b[i-1] != '{' {
		i++
	}
	j := i + 1 // keys are short: a loop beats bytes.IndexByte
	for j < len(s.b) && s.b[j] != '"' {
		j++
	}
	if i == len(s.b) || s.b[i] != '"' || j+1 >= len(s.b) || s.b[j+1] != ':' {
		return nil
	}
	s.member = j + 2
	return s.b[i+1 : j]
}

// Field consumes the key of member name when it is next.
func (s *Scanner) Field(name string) bool {
	if k := s.key(); k != nil && string(k) == name {
		s.i = s.member
		return true
	}
	return false
}

// rawString consumes a JSON string and returns the bytes between its quotes.
// plain reports that they are the string's value as they stand: printable
// ASCII with no escapes.
func (s *Scanner) rawString() (raw []byte, plain bool) {
	s.Expect('"')
	if s.err != nil {
		return nil, false
	}
	b, start := s.b, s.i
	plain = true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], plain
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c < 0x20:
			s.i = i
			s.fail("control character in string")
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	s.i = len(b)
	s.fail("unterminated string")
	return nil, false
}

// str decodes a JSON string.
func (s *Scanner) str() string {
	start := s.i
	raw, plain := s.rawString()
	if s.err != nil || plain {
		return string(raw)
	}
	return s.unquote(start)
}

// unquote decodes the escaped JSON string from start to the cursor.
func (s *Scanner) unquote(start int) (v string) {
	if err := json.Unmarshal(s.b[start:s.i], &v); err != nil {
		s.fail("%v", err)
	}
	return v
}

// name decodes a JSON string interned by its bytes as they stand: an escaped
// one is unquoted once.
func (s *Scanner) name() string {
	start := s.i
	raw, plain := s.rawString()
	if v, ok := s.seen[string(raw)]; ok || s.err != nil {
		return v
	}
	key := string(raw)
	v := key
	if !plain {
		v = s.unquote(start)
	}
	s.seen[key] = v
	return v
}

// digits consumes a run of decimal digits and reports how many there were.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int decodes an int64. It scans in locals: this is the hottest loop of a
// replay.
func (s *Scanner) int() int64 {
	if s.err != nil {
		return 0
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		// Past this bound one more digit leaves the int64 range, and v*10+9
		// stays far inside uint64 below it.
		if v > 1<<63/10 {
			v = math.MaxUint64
			break
		}
		v = v*10 + uint64(b[i]-'0')
	}
	s.i = i
	switch {
	case i == start:
		s.fail("want a number")
	case b[start] == '0' && i > start+1:
		s.fail("leading zero")
	case neg && v <= 1<<63:
		return -int64(v) // -(1<<63) wraps onto itself
	case v <= math.MaxInt64:
		return int64(v)
	default:
		s.fail("number out of range")
	}
	return 0
}

// num decodes an int.
func (s *Scanner) num() int {
	v := s.int()
	if int64(int(v)) != v {
		s.fail("number out of range")
	}
	return int(v)
}

// float decodes a JSON number as encoding/json does for a float64.
func (s *Scanner) float() float64 {
	start := s.i
	s.lit('-')
	if !s.lit('0') && s.digits() == 0 {
		s.fail("want a number")
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

func (s *Scanner) bool() bool {
	if s.word("true") {
		return true
	}
	if !s.word("false") {
		s.fail("want true or false")
	}
	return false
}

// array decodes a JSON array onto the end of out, one elem call per element,
// each on a zeroed slot. Like encoding/json's, the result is never nil.
func array[T any](s *Scanner, out []T, elem func(*T)) []T {
	s.Expect('[')
	if out == nil {
		out = []T{}
	}
	for n := 0; s.err == nil && !s.lit(']'); n++ {
		if n > 0 {
			s.Expect(',')
		}
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
	}
	return out
}

// pair decodes an array of two names.
func (s *Scanner) pair(dst *[2]string) {
	s.Expect('[')
	dst[0] = s.name()
	s.Expect(',')
	dst[1] = s.name()
	s.Expect(']')
}
