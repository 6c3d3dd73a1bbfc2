// Package jsonenc holds the JSON primitives the repository's hand-written
// encoders share: the journal's record appenders (internal/core) and the HTTP
// API's response appenders (internal/api). Each appends exactly the bytes
// encoding/json's Marshal emits for the same value — its HTML-safe string
// escaping, its float format, null for a nil slice — so an appender built
// from them can be held byte-equal to encoding/json, which the callers' fuzz
// tests use as the oracle. There is one string-escaping routine and one float
// formatter in the repository, and they are these.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendElems appends s as a JSON array, one elem call per element; a nil
// slice is null.
func AppendElems[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
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

// AppendStrings appends s as a JSON array of strings; a nil slice is null.
func AppendStrings[S ~string](b []byte, s []S) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, string(v))
	}
	return append(b, ']')
}

// AppendKeyInt appends key, which carries its own punctuation (`,"now":`),
// and v.
func AppendKeyInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendKeyString appends key, which carries its own punctuation, and s as a
// JSON string.
func AppendKeyString(b []byte, key, s string) []byte {
	return AppendString(append(b, key...), s)
}

// AppendFloat appends f in encoding/json's format: the shortest 'f' form,
// switching to 'e' below 1e-6 and from 1e21, with a one-digit negative
// exponent unpadded. f must be finite: encoding/json refuses NaN and ±Inf,
// and a caller that can meet one checks first.
func AppendFloat(b []byte, f float64) []byte {
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

// plainByte marks the bytes a JSON string holds as they stand: printable
// ASCII other than `"`, `\` and the HTML-sensitive <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Plain reports whether s is printable ASCII with nothing to escape — every
// ID, site and customer name the controller makes — so that it may be copied
// into a JSON string as it stands.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string. A Plain s is copied as it stands;
// anything else is escaped exactly as encoding/json escapes it: `"` and `\`
// by backslash, \b \f \n \r \t by name, other control bytes and the
// HTML-sensitive <, > and & as \u00XX, U+2028 and U+2029 as \u202X, and each
// byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	if Plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainByte[c] {
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
