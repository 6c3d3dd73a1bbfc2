// Package faults is a seeded, virtual-clock probabilistic fault model for the
// EMS layer. Real vendor element-management systems time out, reject valid
// configurations, and slow to a crawl during maintenance windows; the GRIPhoN
// prototype saw all three (paper §3 reports minutes-long provisioning steps
// dominated by EMS behavior). The model classifies each command's fate when it
// is dequeued for execution:
//
//   - transient failures — vendor timeouts and spurious NACKs that succeed on
//     resubmission. The controller's retry policy absorbs these.
//   - persistent failures — rejected configurations that will keep failing on
//     this path (a bad cross-connect, an incompatible port state). The
//     controller must fall back to another route or service layer.
//   - latency inflation — the command succeeds but takes a multiple of its
//     nominal duration ("vendor timeout then success").
//   - brownout windows — per-EMS intervals during which failure probabilities
//     and latencies spike, modeling EMS database sweeps and maintenance.
//
// Everything is driven by the kernel's seeded random source, so a chaos run is
// exactly reproducible from its seed.
package faults

import (
	"errors"
	"fmt"
	"time"

	"griphon/internal/sim"
)

// Class is a fault's failure class.
type Class int

const (
	// Transient faults succeed when the command is resubmitted.
	Transient Class = iota
	// Persistent faults keep failing on resubmission of the same work.
	Persistent
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Persistent:
		return "persistent"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Error is a fault-model failure. Controllers classify EMS errors with
// errors.As on this type; anything else (including test-injected plain
// errors) is treated as persistent.
type Error struct {
	// EMS and Cmd identify the failed command.
	EMS, Cmd string
	// Class is the failure class.
	Class Class
	// Reason is a short operator-facing cause ("vendor-timeout",
	// "config-rejected", "brownout").
	Reason string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: %s: %q failed (%s, %s)", e.EMS, e.Cmd, e.Class, e.Reason)
}

// IsTransient reports whether err is a fault-model error of class Transient —
// the only errors a retry policy should resubmit for.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Class == Transient
}

// IsFault reports whether err is a fault-model error of any class. Controllers
// use this to separate environmental failures (worth rerouting around) from
// plain logic errors, which should propagate unchanged.
func IsFault(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Profile tunes the fault model. The zero Profile injects nothing; use
// DefaultProfile for a realistic mix.
type Profile struct {
	// Transient is the per-command probability of a transient failure.
	Transient float64
	// Persistent is the per-command probability of a persistent failure.
	Persistent float64
	// Slow is the per-command probability of latency inflation; the factor
	// is drawn uniformly from [1, SlowMax].
	Slow float64
	// SlowMax bounds the latency inflation factor (values <= 1 disable
	// inflation even when Slow fires).
	SlowMax float64
	// BrownoutEvery is the mean interval between brownout onsets per EMS
	// (exponentially distributed). Zero disables brownouts.
	BrownoutEvery sim.Duration
	// BrownoutFor is the mean brownout duration (exponential).
	BrownoutFor sim.Duration
	// BrownoutTransient replaces Transient while an EMS is browned out.
	BrownoutTransient float64
	// BrownoutSlowdown multiplies every command duration during a brownout
	// (values <= 1 leave durations unchanged).
	BrownoutSlowdown float64
}

// DefaultProfile returns the chaos-soak mix: a few percent of commands fail
// transiently, an order of magnitude fewer persistently, and each EMS browns
// out for minutes every few hours.
func DefaultProfile() Profile {
	return Profile{
		Transient:         0.04,
		Persistent:        0.004,
		Slow:              0.06,
		SlowMax:           5,
		BrownoutEvery:     6 * time.Hour,
		BrownoutFor:       10 * time.Minute,
		BrownoutTransient: 0.35,
		BrownoutSlowdown:  3,
	}
}

// Stats counts what the model has decided, for experiment reporting.
type Stats struct {
	// Decisions is the number of commands the model ruled on.
	Decisions uint64
	// Transients and Persistents count injected failures by class.
	Transients, Persistents uint64
	// Slowed counts commands whose latency was inflated.
	Slowed uint64
	// Brownouts counts brownout windows opened across all EMSes.
	Brownouts uint64
}

// emsState tracks one EMS's brownout schedule: the next window opens at
// nextAt and, once entered, runs until until. Windows are drawn lazily as
// virtual time passes, so idle EMSes cost nothing.
type emsState struct {
	nextAt sim.Time
	until  sim.Time
	primed bool
}

// Model decides the fate of EMS commands. It implements the ems.Injector
// contract structurally (Decide) without importing the ems package, keeping
// the dependency pointing from the device layer to the fault model's consumer
// (the controller) only.
type Model struct {
	k     *sim.Kernel
	p     Profile
	ems   map[string]*emsState
	stats Stats
}

// NewModel builds a fault model over the kernel's seeded random source.
func NewModel(k *sim.Kernel, p Profile) *Model {
	return &Model{k: k, p: p, ems: make(map[string]*emsState)}
}

// Stats returns decision counts so far.
func (m *Model) Stats() Stats { return m.stats }

// Decide rules on one command about to execute on the named EMS: it returns
// the (possibly inflated) duration the command should take and a non-nil
// error when the command must fail. The duration applies even to failing
// commands — a vendor timeout burns its full window before reporting failure.
func (m *Model) Decide(emsName, cmd string, d sim.Duration) (sim.Duration, error) {
	m.stats.Decisions++
	rng := m.k.Rand()

	pTransient := m.p.Transient
	slowdown := 1.0
	if m.brownedOut(emsName) {
		if m.p.BrownoutTransient > 0 {
			pTransient = m.p.BrownoutTransient
		}
		if m.p.BrownoutSlowdown > 1 {
			slowdown = m.p.BrownoutSlowdown
		}
	}

	if m.p.Slow > 0 && m.p.SlowMax > 1 && rng.Float64() < m.p.Slow {
		m.stats.Slowed++
		slowdown *= rng.Uniform(1, m.p.SlowMax)
	}
	d = sim.Duration(float64(d) * slowdown)

	switch {
	case m.p.Persistent > 0 && rng.Float64() < m.p.Persistent:
		m.stats.Persistents++
		return d, &Error{EMS: emsName, Cmd: cmd, Class: Persistent, Reason: "config-rejected"}
	case pTransient > 0 && rng.Float64() < pTransient:
		m.stats.Transients++
		return d, &Error{EMS: emsName, Cmd: cmd, Class: Transient, Reason: "vendor-timeout"}
	}
	return d, nil
}

// brownedOut advances the EMS's brownout schedule to the current virtual time
// and reports whether a window is open now.
func (m *Model) brownedOut(emsName string) bool {
	if m.p.BrownoutEvery <= 0 || m.p.BrownoutFor <= 0 {
		return false
	}
	s := m.ems[emsName]
	if s == nil {
		s = &emsState{}
		m.ems[emsName] = s
	}
	now := m.k.Now()
	rng := m.k.Rand()
	if !s.primed {
		// The first onset is drawn from the simulation epoch, not from the
		// EMS's first command, so an EMS that idles for hours still enters
		// (and leaves) the windows it would have had.
		s.primed = true
		s.nextAt = sim.Time(0).Add(rng.ExpDuration(m.p.BrownoutEvery))
	}
	for s.nextAt <= now {
		m.stats.Brownouts++
		s.until = s.nextAt.Add(rng.ExpDuration(m.p.BrownoutFor))
		s.nextAt = s.until.Add(rng.ExpDuration(m.p.BrownoutEvery))
	}
	return now < s.until && s.until > 0
}
