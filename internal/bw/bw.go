// Package bw defines bandwidth rates shared by every layer: the DWDM layer
// switches whole wavelengths (10G/40G), the OTN layer grooms ODU0 (1.25G)
// tributaries, and customer requests range from 1G to 40G (paper §1).
package bw

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rate is a bandwidth in bits per second.
type Rate int64

// Common rates. ODU payload rates are rounded to their nominal client rates;
// the simulator does not model OTN framing overhead.
const (
	Mbps Rate = 1e6
	Gbps Rate = 1e9

	// Rate1G is the lowest BoD rate the paper offers (one ODU0 client).
	Rate1G = 1 * Gbps
	// Rate2G5 is a SONET/muxponder sub-wavelength rate.
	Rate2G5 = Rate(2.5e9)
	// Rate10G is the prototype's wavelength rate.
	Rate10G = 10 * Gbps
	// Rate40G is the target wavelength rate ("with plans to go to 40 Gbps").
	Rate40G = 40 * Gbps
	// Rate100G is the upper end of modern DWDM channels (paper §2.1).
	Rate100G = 100 * Gbps
)

// GbpsOf returns a Rate from a (possibly fractional) number of Gb/s.
func GbpsOf(g float64) Rate { return Rate(math.Round(g * 1e9)) }

// Gbps returns the rate as a floating-point number of Gb/s.
func (r Rate) Gbps() float64 { return float64(r) / 1e9 }

// String renders the rate compactly: "1G", "2.5G", "10G", "622M".
func (r Rate) String() string { return string(r.Append(nil)) }

// Append appends the rate as String renders it, without allocating: the form
// the API's response appenders use.
func (r Rate) Append(b []byte) []byte {
	switch {
	case r <= 0:
		return append(b, '0')
	case r%Gbps == 0:
		return append(strconv.AppendInt(b, int64(r/Gbps), 10), 'G')
	case r >= Gbps:
		return append(strconv.AppendFloat(b, float64(r)/1e9, 'f', -1, 64), 'G')
	case r%Mbps == 0:
		return append(strconv.AppendInt(b, int64(r/Mbps), 10), 'M')
	default:
		return append(strconv.AppendInt(b, int64(r), 10), "bps"...)
	}
}

// Parse converts strings like "1G", "2.5G", "10G", "622M" into a Rate. The
// unit suffix (G or M) is required: bandwidth without a unit is ambiguous.
func Parse(s string) (Rate, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("bw: empty rate")
	}
	var mult Rate
	switch t[len(t)-1] {
	case 'G':
		mult = Gbps
	case 'M':
		mult = Mbps
	default:
		return 0, fmt.Errorf("bw: rate %q needs a G or M unit suffix", s)
	}
	v, err := strconv.ParseFloat(t[:len(t)-1], 64)
	if err != nil {
		return 0, fmt.Errorf("bw: bad rate %q: %v", s, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("bw: rate %q is not positive", s)
	}
	return Rate(math.Round(v * float64(mult))), nil
}
