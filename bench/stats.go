package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (mean of the two middle values for even n).
// It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics guide, section 1).
const minTail = 10

// tailLadder is the percentiles tried, highest first, when the one asked for
// has too few samples beyond it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 20000 at 19980: in floating point
// the product comes out a hair above.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// supportedTail returns the highest percentile of tailLadder not above want
// that still has at least minTail samples beyond it, with its value. With
// fewer than 2*minTail samples only the median is supported.
func supportedTail(sorted []float64, want float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n-rank(p, n) >= minTail || p == 50 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string // the text between the braces, "" when there are none
	value  float64
}

// promText is a parsed /api/v1/metrics scrape.
type promText []promSample

// parseProm parses Prometheus text format 0.0.4, ignoring comments. Malformed
// lines are an error: the scrape is the source of per-layer counts.
func parseProm(b []byte) (promText, error) {
	var out promText
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			s.name, s.labels = series[:br], series[br+1:len(series)-1]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of a family whose label text contains each of the
// given fragments (e.g. `layer="dwdm"`). A sharded daemon injects a shard
// label, so one family has one series per shard; sum folds them.
func (p promText) sum(name string, labelHas ...string) float64 {
	total := 0.0
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for _, frag := range labelHas {
			if !strings.Contains(s.labels, frag) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// parseProcStat extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The comm field may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(b []byte) (ticks uint64, err error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no comm field")
	}
	f := strings.Fields(string(b[end+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM extracts the peak resident set size, in kB, from the contents of
// /proc/<pid>/status.
func parseVmHWM(b []byte) (kb uint64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", sc.Text())
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
