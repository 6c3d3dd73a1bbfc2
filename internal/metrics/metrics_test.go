package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(vals ...float64) *Sample {
	s := &Sample{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func TestSampleBasics(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	if len(s.vals) != 5 {
		t.Errorf("N = %d", len(s.vals))
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Stddev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Percentile(50) != 3 {
		t.Errorf("Median = %v", s.Percentile(50))
	}
}

func TestEmptySample(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample stats not zero")
	}
}

func TestPercentiles(t *testing.T) {
	s := sampleOf(10, 20, 30, 40)
	if got := s.Percentile(0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(50); got != 25 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(-5); got != 10 {
		t.Errorf("p<0 = %v", got)
	}
	if got := s.Percentile(200); got != 40 {
		t.Errorf("p>100 = %v", got)
	}
}

func TestDurations(t *testing.T) {
	s := &Sample{}
	s.AddDuration(10 * time.Second)
	s.AddDuration(20 * time.Second)
	if s.MeanDuration() != 15*time.Second {
		t.Errorf("MeanDuration = %v", s.MeanDuration())
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Sample{}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= s.Min() && v2 <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		s := &Sample{}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		if len(s.vals) == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMedianIsMiddle(t *testing.T) {
	vals := []float64{7, 1, 9, 3, 5}
	s := sampleOf(vals...)
	sort.Float64s(vals)
	if s.Percentile(50) != vals[2] {
		t.Errorf("Median = %v, want %v", s.Percentile(50), vals[2])
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 2: establishment vs hops", "Path length (hops)", "Time (s)")
	tb.Row(1, 62.48)
	tb.Row(2, 65.67)
	tb.Row(3, 70.94)
	if len(tb.rows) != 3 {
		t.Errorf("rows = %d", len(tb.rows))
	}
	out := tb.String()
	for _, want := range []string{"Table 2", "Path length", "62.48", "70.94", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + header + underline + 3 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableWithoutTitleOrHeaders(t *testing.T) {
	tb := NewTable("")
	tb.Row("a", "b")
	out := tb.String()
	if strings.Contains(out, "---") {
		t.Error("headerless table has underline")
	}
	if !strings.Contains(out, "a") {
		t.Error("row missing")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "blocking vs load"}
	s.Point(0.1, 0.001)
	s.Point(0.5, 0.02)
	out := s.String()
	if !strings.Contains(out, "blocking vs load") || !strings.Contains(out, "0.001") {
		t.Errorf("series output:\n%s", out)
	}
	if len(s.X) != 2 || len(s.Y) != 2 {
		t.Error("points not recorded")
	}
}
