package sim

import (
	"math/rand"
)

// Rand wraps math/rand with the handful of distributions the simulator needs.
// Every kernel owns exactly one Rand so a run is fully determined by its seed.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp mean must be positive")
	}
	return r.r.ExpFloat64() * mean
}

// Jitter returns base scaled by a normally distributed factor with relative
// standard deviation rel, clamped to stay positive (at least 1% of base).
// It is the standard way latency models add realistic variation.
func (r *Rand) Jitter(base Duration, rel float64) Duration {
	if base <= 0 {
		return base
	}
	f := r.Normal(1, rel)
	if f < 0.01 {
		f = 0.01
	}
	return Duration(float64(base) * f)
}

// UniformDuration returns a uniform duration in [lo,hi).
func (r *Rand) UniformDuration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.r.Int63n(int64(hi-lo)))
}

// ExpDuration returns an exponentially distributed duration with the given
// mean.
func (r *Rand) ExpDuration(mean Duration) Duration {
	return Duration(r.Exp(float64(mean)))
}
