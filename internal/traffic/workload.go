package traffic

import (
	"math"
	"time"

	"griphon/internal/sim"
)

// PoissonArrivals schedules fn for each arrival of a Poisson process with the
// given mean inter-arrival time, from now until the deadline. fn receives the
// arrival's index. It returns the number of arrivals scheduled.
func PoissonArrivals(k *sim.Kernel, mean sim.Duration, until sim.Time, fn func(i int)) int {
	if mean <= 0 || fn == nil {
		return 0
	}
	n := 0
	t := k.Now()
	for {
		t = t.Add(k.Rand().ExpDuration(mean))
		if t.After(until) {
			break
		}
		i := n
		k.At(t, func() { fn(i) })
		n++
	}
	return n
}

// Diurnal returns the interactive-demand multiplier in [trough,1] for a time
// of day, peaking at peakHour local time with a 24 h sinusoid. Inter-DC
// interactive traffic follows end users; bulk windows are its trough.
func Diurnal(t sim.Time, peakHour float64, trough float64) float64 {
	if trough < 0 {
		trough = 0
	}
	if trough > 1 {
		trough = 1
	}
	hours := t.Seconds() / 3600
	phase := 2 * math.Pi * (hours - peakHour) / 24
	raw := (1 + math.Cos(phase)) / 2 // 1 at peak, 0 at trough
	return trough + (1-trough)*raw
}

// Day is one simulated day.
const Day = 24 * time.Hour

// TB is one terabyte in bytes.
const TB = 1e12
