// Package jsonenc writes and reads JSON without reflection, byte for byte as
// encoding/json does: its HTML-safe string escaping, its float format, null
// for a nil slice. Its appenders are shared by the journal's records
// (internal/core) and the HTTP API's responses (internal/api). A Table lists
// a record type's members once, and its Append and Read walk the rows. The
// Scanner reads exactly what the appenders write: members in table order,
// each at most once, no whitespace, null only where a row allows it (DESIGN.md
// §17 gives the grammar). encoding/json is the oracle the callers' fuzz tests
// hold all of it to; here it only unquotes an escaped string.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
func AppendStrings[S ~string](b []byte, s []S) []byte { return AppendElems(b, s, appendString[S]) }

func appendString[S ~string](b []byte, v *S) []byte { return AppendString(b, string(*v)) }

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

// escaped is how encoding/json writes each ASCII byte in a string: "" for
// one it copies as it stands, printable and other than `"`, `\` and the
// HTML-sensitive <, > and &; `"`, `\`, \b \f \n \r \t by name; the rest as
// \u00XX.
var escaped = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		if c < 0x20 || strings.ContainsRune(`"\<>&`, rune(c)) {
			t[c] = fmt.Sprintf(`\u%04x`, c)
		}
	}
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// plainByte marks the bytes a string holds as they stand.
var plainByte = func() (t [256]bool) {
	for c, e := range escaped {
		t[c] = e == ""
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

// AppendString appends s as a JSON string, escaped exactly as encoding/json
// escapes it: each ASCII byte as escaped says, U+2028 and U+2029 as \u202X,
// and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	if Plain(s) {
		return append(append(b, s...), '"')
	}
	start := 0
	for i := 0; i < len(s); {
		esc, size := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = escaped[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				esc = `\ufffd`
			case r == '\u2028':
				esc = `\u2028`
			case r == '\u2029':
				esc = `\u2029`
			}
		}
		if esc != "" {
			b = append(append(b, s[start:i]...), esc...)
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}
