// Package metrics provides the small statistics and table-formatting toolkit
// shared by the benchmark harness, the examples and the HTTP API: sample
// summaries (mean/stddev/percentiles) and aligned text tables matching the
// way the paper reports its results.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	vals []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.vals = append(s.vals, v) }

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the sample standard deviation (0 for n < 2).
func (s *Sample) Stddev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation; 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanDuration returns the mean as a duration (observations in seconds).
func (s *Sample) MeanDuration() time.Duration {
	return time.Duration(s.Mean() * float64(time.Second))
}

// Table builds an aligned text table in the style of the paper's tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	if len(t.headers) > 0 {
		fmt.Fprintln(w, strings.Join(t.headers, "\t"))
		underline := make([]string, len(t.headers))
		for i, h := range t.headers {
			underline[i] = strings.Repeat("-", len(h))
		}
		fmt.Fprintln(w, strings.Join(underline, "\t"))
	}
	for _, r := range t.rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// Series is a named (x, y) sequence — a figure's data line.
type Series struct {
	Name string
	X, Y []float64
}

// Point appends one point.
func (s *Series) Point(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as aligned x/y pairs.
func (s *Series) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "%s\n", s.Name)
	}
	for i := range s.X {
		fmt.Fprintf(&b, "  %12.4g  %12.4g\n", s.X[i], s.Y[i])
	}
	return b.String()
}
