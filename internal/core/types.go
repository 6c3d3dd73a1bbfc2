// Package core implements the GRIPhoN controller (paper §2.2): connection
// establishment and release across the FXC, OTN and ROADM layers via their
// EMSes, the resource/inventory database, failure detection, localization and
// automated restoration, bridge-and-roll for planned maintenance and
// reversion, and network re-grooming.
package core

import (
	"fmt"

	"griphon/internal/bw"
	"griphon/internal/fxc"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/optics"
	"griphon/internal/otn"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// ConnID identifies one connection managed by the controller.
type ConnID string

// State is a connection's lifecycle state.
type State uint8

const (
	// StatePending: resources reserved, EMS configuration in progress.
	StatePending State = iota
	// StateActive: carrying traffic.
	StateActive
	// StateDown: failed and awaiting restoration or repair.
	StateDown
	// StateRestoring: restoration path being configured.
	StateRestoring
	// StateTearingDown: release in progress.
	StateTearingDown
	// StateReleased: gone; kept for history.
	StateReleased
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateDown:
		return "down"
	case StateRestoring:
		return "restoring"
	case StateTearingDown:
		return "tearing-down"
	case StateReleased:
		return "released"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Layer records which network layer realizes a connection (paper Fig. 2).
type Layer uint8

const (
	// LayerDWDM is a full-wavelength connection switched by ROADMs.
	LayerDWDM Layer = iota
	// LayerOTN is a sub-wavelength circuit groomed by OTN switches.
	LayerOTN
)

func (l Layer) String() string {
	switch l {
	case LayerDWDM:
		return "dwdm"
	case LayerOTN:
		return "otn"
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Protection selects a connection's survivability scheme (paper Table 1).
type Protection uint8

const (
	// Restore is GRIPhoN's default for wavelengths: automated failure
	// detection and dynamic re-provisioning — far faster than repair,
	// far cheaper than 1+1.
	Restore Protection = iota
	// OnePlusOne pre-provisions a disjoint hot-standby path (expensive;
	// tail-end switch in ~50 ms).
	OnePlusOne
	// Unprotected waits for the fiber to be repaired (today's reality for
	// wavelength services: 4–12 h outages).
	Unprotected
	// SharedMesh is the OTN layer's sub-second shared-mesh restoration;
	// only valid for LayerOTN circuits.
	SharedMesh
)

func (p Protection) String() string {
	switch p {
	case Restore:
		return "restore"
	case OnePlusOne:
		return "1+1"
	case Unprotected:
		return "unprotected"
	case SharedMesh:
		return "shared-mesh"
	}
	return fmt.Sprintf("Protection(%d)", int(p))
}

// lightpath is the resource record of one provisioned wavelength path.
type lightpath struct {
	route  rwa.Route
	ots    [2]*optics.OT
	regens []*optics.Regen
	// fxc client/line port pairs at each terminating PoP.
	portsA, portsB [2]fxc.PortID
	// segNodes and segOwners record the ROADM-layer configuration per
	// transparent segment, for symmetric release.
	segNodes  [][]topo.NodeID
	segOwners []string
	// cached marks a route answered from the path cache; the setup
	// choreography then charges the reduced cached controller overhead.
	cached bool
}

// Connection is the controller's record of one customer connection. The
// struct itself is the row that is kept for ever — identity, placement,
// lifecycle timestamps and the billing and outage totals — and is sized for
// that: a long-lived controller holds mostly released connections. What only
// a connection holding resources needs sits behind connLive.
type Connection struct {
	ID       ConnID
	Customer inventory.Customer
	From, To topo.SiteID
	Rate     bw.Rate

	// Timing and accounting.
	RequestedAt  sim.Time
	ActiveAt     sim.Time
	ReleasedAt   sim.Time
	TotalOutage  sim.Duration
	Restorations int
	Rolls        int

	// Usage metering: BoD bills for delivered gigabit-hours, not for the
	// calendar month — and outages are not billed, which is the carrier's
	// skin in the restoration game.
	usageGbHours float64

	// The resource-holding half; nil once the release has committed (see
	// Controller.retire). Promoted field reads on a released connection must
	// go through the nil-safe accessors below.
	*connLive

	Layer   Layer
	Protect Protection
	State   State
	// stable is the last committed lifecycle state — what the journal
	// records while State is transiently Pending/Restoring/TearingDown.
	// Maintained at every commit point (see persist.go).
	stable State

	// onProtect records that traffic currently rides the protect path.
	onProtect bool
	// Internal marks carrier-owned connections (OTN pipe carriers) that
	// are not customer-visible.
	Internal bool
	// Degraded marks a wavelength request delivered as a groomed OTN
	// circuit because the DWDM layer could not carry it (the last rung of
	// the setup degradation ladder).
	Degraded bool
	inOutage bool
	metering bool
}

// connLive is what a connection needs only while it holds resources: its
// realization on both layers, the running clocks behind the totals, and the
// spans of the operation driving it.
type connLive struct {
	// DWDM realization.
	path *lightpath
	// protect is the 1+1 standby lightpath.
	protect *lightpath

	// OTN realization.
	pipes  []*otn.Pipe
	slots  int
	backup []*otn.Pipe

	// carries is the pipe this internal wavelength transports.
	carries otn.PipeID

	outageStart sim.Time
	meterAt     sim.Time

	// opSpan traces the operation currently driving this connection
	// (op:setup, op:restore, op:teardown); phaseSpan is the open phase
	// within a restoration (detect, localize, provision). Both are inert
	// zero values when tracing is off.
	opSpan    obs.SpanRef
	phaseSpan obs.SpanRef
}

// SetupTime returns how long establishment took (Table 2's measurement).
// Zero until the connection first becomes active.
func (c *Connection) SetupTime() sim.Duration {
	if c.ActiveAt == 0 && c.State == StatePending {
		return 0
	}
	return c.ActiveAt.Sub(c.RequestedAt)
}

// Route returns the current working fiber path (empty for OTN circuits).
func (c *Connection) Route() topo.Path {
	lp := c.working()
	if lp == nil {
		return topo.Path{}
	}
	return lp.route.Path
}

// Channels returns the working path's per-segment wavelengths.
func (c *Connection) Channels() []optics.Channel {
	lp := c.working()
	if lp == nil {
		return nil
	}
	return append([]optics.Channel(nil), lp.route.Channels...)
}

// PipeIDs returns the OTN pipes a sub-wavelength circuit rides, in order.
func (c *Connection) PipeIDs() []otn.PipeID {
	if c.connLive == nil {
		return []otn.PipeID{}
	}
	out := make([]otn.PipeID, len(c.pipes))
	for i, p := range c.pipes {
		out[i] = p.ID()
	}
	return out
}

func (c *Connection) working() *lightpath {
	if c.connLive == nil {
		return nil
	}
	if c.onProtect {
		return c.protect
	}
	return c.path
}

// Outage returns the cumulative downtime, including a still-open outage.
func (c *Connection) Outage(now sim.Time) sim.Duration {
	total := c.TotalOutage
	if c.inOutage {
		total += now.Sub(c.outageStart)
	}
	return total
}

func (c *Connection) beginOutage(now sim.Time) {
	if !c.inOutage {
		c.settleUsage(now)
		c.inOutage = true
		c.outageStart = now
	}
}

func (c *Connection) endOutage(now sim.Time) {
	if c.inOutage {
		c.settleUsage(now)
		c.TotalOutage += now.Sub(c.outageStart)
		c.inOutage = false
	}
}

// billing reports whether usage accrues right now: traffic flows only on an
// active, outage-free connection.
func (c *Connection) billing() bool {
	return c.metering && c.State == StateActive && !c.inOutage
}

// settleUsage accrues gigabit-hours up to now at the current rate and resets
// the meter. Call it BEFORE any transition that changes billing state (state,
// outage, or rate).
func (c *Connection) settleUsage(now sim.Time) {
	if c.connLive == nil {
		return // released: the total is final
	}
	if c.billing() {
		c.usageGbHours += c.Rate.Gbps() * now.Sub(c.meterAt).Hours()
	}
	c.meterAt = now
}

// UsageGbHours returns the delivered gigabit-hours as of now (live segment
// included).
func (c *Connection) UsageGbHours(now sim.Time) float64 {
	total := c.usageGbHours
	if c.billing() {
		total += c.Rate.Gbps() * now.Sub(c.meterAt).Hours()
	}
	return total
}

// Event is one entry of the controller's audit log, which feeds the customer
// GUI's connection/fault views.
type Event struct {
	At   sim.Time
	Conn ConnID
	Kind string
	Text string
}

func (e Event) String() string {
	return fmt.Sprintf("[%v] %s %s: %s", e.At, e.Conn, e.Kind, e.Text)
}
