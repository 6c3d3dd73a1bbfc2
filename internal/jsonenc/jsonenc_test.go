package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// oddString holds everything encoding/json escapes: the HTML-sensitive
// characters, a quote and a backslash, U+2028 and U+2029, control bytes, DEL
// (which it does not) and invalid UTF-8.
const oddString = "ac\"me\\ <&>\u2028\u2029\x01\b\f\n\r\t\x7f \xff\xc3 Ωmega"

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

// TestPrimitiveShapes pins the shapes the primitives must get right by their
// literal bytes, beside the oracle.
func TestPrimitiveShapes(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{oddString, `"ac\"me\\ \u003c\u0026\u003e\u2028\u2029\u0001\b\f\n\r\t` + "\x7f" + ` \ufffd\ufffd Ωmega"`},
		{"C0001", `"C0001"`},
		{"", `""`},
	} {
		got := AppendString(nil, c.in)
		if string(got) != c.want {
			t.Errorf("string %q appends as %s, want %s", c.in, got, c.want)
		}
		sameAsMarshal(t, got, c.in)
	}
	for _, c := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {math.Copysign(0, -1), "-0"}, {1e-7, "1e-7"}, {1e-6, "0.000001"}, {-42.5, "-42.5"},
		{1e20, "100000000000000000000"}, {1e21, "1e+21"}, {123.456, "123.456"}, {5e-324, "5e-324"},
	} {
		got := AppendFloat(nil, c.in)
		if string(got) != c.want {
			t.Errorf("float %v appends as %s, want %s", c.in, got, c.want)
		}
		sameAsMarshal(t, got, c.in)
	}
	if got := AppendStrings[string](nil, nil); string(got) != "null" {
		t.Errorf("nil strings append as %s, want null", got)
	}
	sameAsMarshal(t, AppendStrings(nil, []string{oddString, ""}), []string{oddString, ""})
}

// FuzzScanner holds the scanner's value readers to encoding/json on the same
// bytes: whatever the scanner accepts, encoding/json decodes to the same
// value, and whatever encoding/json accepts the scanner accepts too, unless
// the bytes lie outside the scanner's grammar (whitespace around the value,
// or a null).
func FuzzScanner(f *testing.F) {
	for _, seed := range []string{
		`"C0001"`, `""`, `"ac\"meé\n"`, "\"\xff\xc3\"", `"\ud800"`, "\"a\x01\"", `"a`,
		`0`, `-0`, `01`, `-`, `12345678901234567890`, `-9223372036854775808`, `9223372036854775808`,
		`1.5`, `-0.0e+0`, `1e-7`, `1E21`, `1e400`, `.5`, `1.`, `+1`, `true`, `false`, `tru`, `null`, ` 1`, `1 `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, data, (*Scanner).str)
		agree(t, data, (*Scanner).int)
		agree(t, data, (*Scanner).num)
		agree(t, data, (*Scanner).float)
		agree(t, data, (*Scanner).bool)
	})
}

// agree holds read to encoding/json's Unmarshal into a V on data.
func agree[V comparable](t *testing.T, data []byte, read func(*Scanner) V) {
	t.Helper()
	s := NewScanner()
	var got, want V
	gerr := s.Decode(data, func() { got = read(s) })
	werr := json.Unmarshal(data, &want)
	trimmed := bytes.TrimSpace(data)
	inGrammar := len(trimmed) == len(data) && string(data) != "null"
	switch {
	case gerr == nil && werr != nil:
		t.Fatalf("%T: scanner accepts %q, encoding/json refuses it: %v", want, data, werr)
	case gerr == nil && got != want:
		t.Fatalf("%T: scanner reads %q as %v, encoding/json as %v", want, data, got, want)
	case gerr != nil && werr == nil && inGrammar:
		t.Fatalf("%T: scanner refuses %q (%v), encoding/json reads %v", want, data, gerr, want)
	}
}
