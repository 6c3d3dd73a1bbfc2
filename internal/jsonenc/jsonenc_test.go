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
