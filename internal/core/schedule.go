package core

import (
	"fmt"

	"griphon/internal/inventory"
	"griphon/internal/sim"
)

// Booking is a calendar reservation for future bandwidth: the BoD pattern the
// paper's motivating workload implies (nightly replication windows). At the
// booked time the controller provisions the service; after the hold it tears
// it down again. The carrier gains exactly the planning visibility §4 asks
// for.
type Booking struct {
	// ID is the controller-assigned booking number.
	ID   int
	Req  Request
	At   sim.Time
	Hold sim.Duration

	// Conns holds the provisioned components once setup starts.
	Conns []*Connection
	// SetupErr records a failed provisioning attempt.
	SetupErr error
	// CloseErr records the error (if any) hit while closing the window —
	// a component whose Disconnect kept failing after retries.
	CloseErr error
	// Done completes when every component has been released (or setup
	// failed).
	Done *sim.Job

	// phase tracks the booking through its lifecycle (persist.go).
	phase int
	// closing marks a close in flight (transient, never journaled): an
	// early cancel and the hold timer must not both tear the window down.
	closing bool
	// closeAt is when the window closes, fixed once setup completes.
	closeAt sim.Time
}

// ScheduleConnect books req for a window starting at `at` and lasting `hold`.
// Validation of sites/rate happens now; resource admission happens when the
// window opens (booked resources are not idle-reserved — the pool stays
// shared, which is the entire BoD economics).
func (c *Controller) ScheduleConnect(req Request, at sim.Time, hold sim.Duration) (*Booking, error) {
	if req.Customer == "" {
		return nil, fmt.Errorf("core: empty customer")
	}
	if _, err := PlaceRate(req.Rate); err != nil {
		return nil, err
	}
	if _, err := c.siteHome(req.From); err != nil {
		return nil, err
	}
	if _, err := c.siteHome(req.To); err != nil {
		return nil, err
	}
	if at.Before(c.k.Now()) {
		return nil, fmt.Errorf("core: booking time %v is in the past", at)
	}
	if hold <= 0 {
		return nil, fmt.Errorf("core: non-positive hold %v", hold)
	}

	b := &Booking{ID: c.nextBooking, Req: req, At: at, Hold: hold, Done: c.k.NewJob()}
	c.nextBooking++
	c.bookings[b.ID] = b
	c.scheduleOpen(b)
	c.log(nil, "booking", "%s %s->%s %v at %v for %v", req.Customer, req.From, req.To, req.Rate, at, hold)
	c.journalCommit(commitSet{reason: "booking", bookings: []*Booking{b}})
	return b, nil
}

// scheduleOpen arms the window-open timer; a booking whose start time has
// already passed (recovery after an outage spanning it) opens immediately.
func (c *Controller) scheduleOpen(b *Booking) {
	if b.At.Before(c.k.Now()) {
		c.k.Defer(func() { c.openBooking(b) })
		return
	}
	c.k.At(b.At, func() { c.openBooking(b) })
}

func (c *Controller) openBooking(b *Booking) {
	if b.phase != bookingPending {
		return // cancelled before the window opened; the timer is a no-op
	}
	conns, job, err := c.ConnectComposite(b.Req)
	if err != nil {
		b.SetupErr = err
		b.phase = bookingFailed
		c.log(nil, "booking-blocked", "%s %s->%s %v: %v", b.Req.Customer, b.Req.From, b.Req.To, b.Req.Rate, err)
		c.journalCommit(commitSet{reason: "booking-blocked", bookings: []*Booking{b}})
		b.Done.Complete(err)
		return
	}
	b.Conns = conns
	job.OnDone(func(err error) {
		if err != nil {
			b.SetupErr = err
			// One component failing must not strand the siblings that did
			// come up: the window is dead, so release everything still
			// holding resources before reporting the failure.
			var tds []*sim.Job
			for _, conn := range b.Conns {
				if conn.State == StateReleased || conn.State == StateTearingDown {
					continue
				}
				if j, derr := c.Disconnect(b.Req.Customer, conn.ID); derr == nil {
					tds = append(tds, j)
				}
			}
			sim.All(c.k, tds...).OnDone(func(error) {
				b.phase = bookingFailed
				c.log(nil, "booking-failed", "%s: setup failed, %d components released: %v",
					b.Req.Customer, len(tds), err)
				c.journalCommit(commitSet{reason: "booking-failed", bookings: []*Booking{b}})
				b.Done.Complete(err)
			})
			return
		}
		b.phase = bookingOpen
		b.closeAt = c.k.Now().Add(b.Hold)
		c.journalCommit(commitSet{reason: "booking-open", bookings: []*Booking{b}})
		c.k.After(b.Hold, func() { c.closeBooking(b) })
	})
}

// CancelBooking ends cust's booking early: a pending window is descheduled
// before it opens, an open one has its components released now. Ownership is
// verified the same way Booking is, so a guessed ID belonging to another
// tenant reads as unknown. The returned job completes when every component is
// released (immediately for a pending booking).
func (c *Controller) CancelBooking(cust inventory.Customer, id int) (*sim.Job, error) {
	b, err := c.Booking(cust, id)
	if err != nil {
		return nil, err
	}
	switch b.phase {
	case bookingPending:
		b.phase = bookingClosed
		c.log(nil, "booking-cancel", "%s cancelled booking %d before its window", cust, id)
		c.journalCommit(commitSet{reason: "booking-cancel", bookings: []*Booking{b}})
		b.Done.Complete(nil)
		return b.Done, nil
	case bookingOpen:
		c.log(nil, "booking-cancel", "%s closing booking %d early", cust, id)
		c.closeBooking(b)
		return b.Done, nil
	default:
		return nil, fmt.Errorf("core: booking %d already finished", id)
	}
}

func (c *Controller) closeBooking(b *Booking) {
	if b.phase != bookingOpen || b.closing {
		return // cancelled, closing, or closed; the hold timer is a no-op
	}
	b.closing = true
	var jobs []*sim.Job
	for _, conn := range b.Conns {
		if conn.State == StateReleased || conn.State == StateTearingDown {
			continue // already gone, or another teardown owns it
		}
		jobs = append(jobs, c.closeBookingConn(b, conn))
	}
	sim.All(c.k, jobs...).OnDone(func(err error) {
		b.phase = bookingClosed
		b.CloseErr = err
		if err != nil {
			c.log(nil, "booking-close-failed", "%s: %v", b.Req.Customer, err)
		}
		c.journalCommit(commitSet{reason: "booking-close", bookings: []*Booking{b}})
		b.Done.Complete(err)
	})
}

// closeBookingConn releases one booking component, retrying synchronous
// Disconnect refusals on the retry policy's backoff schedule. Every refusal
// is counted and logged; if the policy is exhausted the error is surfaced
// through the booking instead of being swallowed — a leaked connection bills
// the customer for capacity they no longer want.
func (c *Controller) closeBookingConn(b *Booking, conn *Connection) *sim.Job {
	out := c.k.NewJob()
	c.tryCloseBookingConn(b, conn, 1, c.retry.BaseBackoff, out)
	return out
}

func (c *Controller) tryCloseBookingConn(b *Booking, conn *Connection, attempt int, backoff sim.Duration, out *sim.Job) {
	if conn.State == StateReleased || conn.State == StateTearingDown {
		out.Complete(nil) // released (or releasing) between attempts
		return
	}
	job, err := c.Disconnect(b.Req.Customer, conn.ID)
	if err == nil {
		job.OnDone(func(err error) { out.Complete(err) })
		return
	}
	c.ins.bookingCloseErrs.Inc()
	c.log(conn, "booking-close-error", "attempt %d: %v", attempt, err)
	if attempt >= c.retry.MaxAttempts {
		out.Complete(fmt.Errorf("core: closing booking %d component %s: %w", b.ID, conn.ID, err))
		return
	}
	next := backoff * 2
	if next > c.retry.MaxBackoff {
		next = c.retry.MaxBackoff
	}
	c.k.After(backoff, func() { c.tryCloseBookingConn(b, conn, attempt+1, next, out) })
}
