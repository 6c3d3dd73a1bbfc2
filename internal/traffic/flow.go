// Package traffic provides flow-level workload modelling: bulk replication
// transfers whose progress follows a circuit's (time-varying) rate, arrival
// process generators, diurnal demand curves, and heavy-tailed dataset sizes.
// Paper §1: inter-data-center peaks are dominated by non-interactive bulk
// transfers ranging from terabytes to petabytes.
package traffic

import (
	"fmt"
	"math"

	"griphon/internal/bw"
	"griphon/internal/sim"
)

// Flow is a bulk transfer of a fixed number of bytes over a channel whose
// rate changes over time (bandwidth-on-demand adjustments, outages). Progress
// integrates rate over virtual time; the Done job completes when the last bit
// lands.
type Flow struct {
	k    *sim.Kernel
	size float64 // total bits
	left float64 // bits remaining
	rate bw.Rate
	last sim.Time
	done *sim.Job
	eta  *sim.Timer

	started  sim.Time
	finished sim.Time
}

// NewFlow creates a transfer of sizeBytes bytes, initially at rate zero.
func NewFlow(k *sim.Kernel, sizeBytes float64) (*Flow, error) {
	if sizeBytes <= 0 {
		return nil, fmt.Errorf("traffic: non-positive size %v", sizeBytes)
	}
	return &Flow{
		k:       k,
		size:    sizeBytes * 8,
		left:    sizeBytes * 8,
		last:    k.Now(),
		started: k.Now(),
		done:    k.NewJob(),
	}, nil
}

// Completed reports whether the transfer has finished.
func (f *Flow) Completed() bool { return f.done.Done() }

// SetRate changes the transfer rate from now on (0 pauses the flow). Progress
// made at the previous rate is settled first.
func (f *Flow) SetRate(r bw.Rate) {
	if r < 0 {
		r = 0
	}
	f.settle()
	f.rate = r
	f.reschedule()
}

// settle integrates progress at the current rate up to now.
func (f *Flow) settle() {
	now := f.k.Now()
	dt := now.Sub(f.last).Seconds()
	f.last = now
	if f.done.Done() || dt <= 0 || f.rate <= 0 {
		return
	}
	f.left -= float64(f.rate) * dt
	if f.left <= 1e-6 { // float slack: sub-microbit residue is done
		f.left = 0
		f.finish()
	}
}

func (f *Flow) reschedule() {
	if f.eta != nil {
		f.eta.Stop()
		f.eta = nil
	}
	if f.done.Done() || f.rate <= 0 {
		return
	}
	secs := f.left / float64(f.rate)
	d := sim.Duration(math.Ceil(secs * 1e9))
	f.eta = f.k.After(d, func() {
		f.eta = nil
		f.settle()
		if !f.done.Done() {
			// Rounding left a residue; finish now.
			f.left = 0
			f.finish()
		}
	})
}

func (f *Flow) finish() {
	if f.done.Done() {
		return
	}
	f.finished = f.k.Now()
	f.done.Complete(nil)
}

// Elapsed returns the transfer duration: start to finish for completed flows,
// start to now otherwise.
func (f *Flow) Elapsed() sim.Duration {
	if f.done.Done() {
		return f.finished.Sub(f.started)
	}
	return f.k.Now().Sub(f.started)
}
