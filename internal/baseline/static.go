// Package baseline implements the comparison points of paper Table 1 and the
// related work: today's statically provisioned private lines (weeks of lead
// time, paid at peak), 1+1 protection economics, manual restoration, and a
// NetStitcher-style store-and-forward bulk scheduler that squeezes transfers
// into the leftover capacity of static circuits. These make GRIPhoN's wins
// quantitative on identical workloads.
package baseline

import (
	"fmt"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
)

// StaticLeadTime is how long carriers take today to provision a private line
// at the highest data rates ("several weeks", paper Table 1).
const StaticLeadTime = 21 * 24 * time.Hour

// ManualRestoreMin and ManualRestoreMax bound today's manual restoration
// outage for full-wavelength services (paper: "4 to 12 hours typically").
const (
	ManualRestoreMin = 4 * time.Hour
	ManualRestoreMax = 12 * time.Hour
)

// StaticCircuit models today's statically provisioned private line: a fixed
// rate bought for the worst case and paid for around the clock.
type StaticCircuit struct {
	// Rate is the provisioned (peak) rate.
	Rate bw.Rate
	// ProvisionedAt is when the circuit finally came up, LeadTime after
	// the order.
	ProvisionedAt sim.Time
}

// OrderStatic simulates ordering a static circuit at order time: it is usable
// from order+StaticLeadTime.
func OrderStatic(order sim.Time, rate bw.Rate) StaticCircuit {
	return StaticCircuit{Rate: rate, ProvisionedAt: order.Add(StaticLeadTime)}
}

// TransferTime returns how long a transfer of sizeBytes takes on the static
// circuit, counted from the order: lead time first (if not yet provisioned),
// then size/rate.
func (s StaticCircuit) TransferTime(start sim.Time, sizeBytes float64) (sim.Duration, error) {
	if s.Rate <= 0 {
		return 0, fmt.Errorf("baseline: circuit has no rate")
	}
	if sizeBytes <= 0 {
		return 0, fmt.Errorf("baseline: non-positive size")
	}
	wait := sim.Duration(0)
	if start.Before(s.ProvisionedAt) {
		wait = s.ProvisionedAt.Sub(start)
	}
	xfer := sim.Duration(sizeBytes * 8 / float64(s.Rate) * float64(time.Second))
	return wait + xfer, nil
}

// Costs is a simple relative cost model for Table 1-style comparisons. Units
// are arbitrary "cost units"; only ratios matter.
type Costs struct {
	// OTMonthly is the monthly cost of one transponder.
	OTMonthly float64
	// RegenMonthly is the monthly cost of one regenerator.
	RegenMonthly float64
	// WavelengthKmMonthly is the monthly cost of one wavelength over one
	// km of fiber.
	WavelengthKmMonthly float64
}

// DefaultCosts returns ratios in line with published transport-economics
// studies: transponders dominate and regens cost roughly a transponder pair.
func DefaultCosts() Costs {
	return Costs{
		OTMonthly:           10,
		RegenMonthly:        18,
		WavelengthKmMonthly: 0.01,
	}
}

// WavelengthMonthly returns the monthly cost of one wavelength connection
// over the given distance with the given regen count: two OTs, the regens,
// and the per-km charge.
func (c Costs) WavelengthMonthly(km float64, regens int) float64 {
	return 2*c.OTMonthly + float64(regens)*c.RegenMonthly + km*c.WavelengthKmMonthly
}

// OnePlusOneMonthly returns the 1+1 cost: both legs fully equipped.
func (c Costs) OnePlusOneMonthly(workKM float64, workRegens int, protKM float64, protRegens int) float64 {
	return c.WavelengthMonthly(workKM, workRegens) + c.WavelengthMonthly(protKM, protRegens)
}

// SharedRestoreMonthly returns the cost of GRIPhoN-style restoration: one
// working leg plus a fractional share of a restoration pool. shareRatio is
// the pool oversubscription (e.g. 0.25 = four working paths share one spare).
func (c Costs) SharedRestoreMonthly(km float64, regens int, shareRatio float64) float64 {
	if shareRatio < 0 {
		shareRatio = 0
	}
	return c.WavelengthMonthly(km, regens) * (1 + shareRatio)
}
