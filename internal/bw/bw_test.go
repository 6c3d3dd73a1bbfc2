package bw

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{Rate1G, "1G"},
		{Rate2G5, "2.5G"},
		{Rate10G, "10G"},
		{Rate40G, "40G"},
		{Rate100G, "100G"},
		{622 * Mbps, "622M"},
		{0, "0"},
		{-5, "0"},
		{1234, "1234bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rate
	}{
		{"1G", Rate1G},
		{"2.5G", Rate2G5},
		{"10g", Rate10G},
		{"40G", Rate40G},
		{"622M", 622 * Mbps},
		{" 10G ", Rate10G},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "G", "abc", "-1G", "0G", "0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestGbpsRoundTrip(t *testing.T) {
	prop := func(n uint8) bool {
		g := float64(n%100) + 0.5
		return GbpsOf(g).Gbps() == g
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, r := range []Rate{Rate1G, Rate2G5, Rate10G, Rate40G, Rate100G, 622 * Mbps} {
		back, err := Parse(r.String())
		if err != nil {
			t.Errorf("Parse(%v): %v", r, err)
			continue
		}
		if back != r {
			t.Errorf("round trip %v -> %q -> %v", r, r.String(), back)
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, seed := range []string{"1G", "2.5G", "622M", "0", "-3G", "G", "10g ", "1e9", "9999999G"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return
		}
		if r <= 0 {
			t.Fatalf("Parse(%q) succeeded with non-positive rate %d", s, int64(r))
		}
		// A successfully parsed rate must round-trip through String for
		// the canonical formats.
		back, err := Parse(r.String())
		if err != nil {
			t.Fatalf("re-Parse(%q) of Parse(%q): %v", r.String(), s, err)
		}
		if back != r {
			t.Fatalf("round trip %q -> %v -> %v", s, r, back)
		}
	})
}

// formatRate is the fmt-based rendering String had before it was built on
// Append: the reference Append is held to.
func formatRate(r Rate) string {
	switch {
	case r <= 0:
		return "0"
	case r%Gbps == 0:
		return fmt.Sprintf("%dG", int64(r/Gbps))
	case r >= Gbps:
		return strconv.FormatFloat(float64(r)/1e9, 'f', -1, 64) + "G"
	case r%Mbps == 0:
		return fmt.Sprintf("%dM", int64(r/Mbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// TestAppendMatchesFormat: Append renders every rate as the fmt-based
// reference does, whole gigabits, fractional gigabits, megabits and bare bits
// alike, and into a buffer with room it allocates nothing.
func TestAppendMatchesFormat(t *testing.T) {
	prop := func(n int64, unit uint8) bool {
		r := Rate(n)
		switch unit % 3 {
		case 0:
			r = Rate(n%1000) * Gbps
		case 1:
			r = Rate(n%1_000_000) * Mbps
		}
		return string(r.Append(nil)) == formatRate(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	buf := make([]byte, 0, 32)
	if allocs := testing.AllocsPerRun(100, func() { buf = Rate2G5.Append(buf[:0]) }); allocs != 0 {
		t.Errorf("Append allocates %v objects, want 0", allocs)
	}
}
