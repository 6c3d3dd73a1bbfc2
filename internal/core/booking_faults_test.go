package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/faults"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// TestBookingCloseErrorSurfaced pins the closeBooking bugfix: a component
// whose Disconnect keeps refusing must surface the error through the booking
// after the retry policy is exhausted — not complete the window as if nothing
// happened — and every refusal must hit the close-error counter.
func TestBookingCloseErrorSurfaced(t *testing.T) {
	k, c := newTestbed(t, 90)
	at := k.Now().Add(time.Hour)
	b, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G,
	}, at, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(at.Add(30 * time.Minute))
	if len(b.Conns) != 1 || b.Conns[0].State != StateActive {
		t.Fatalf("booking not active inside window: %+v", b.Conns)
	}
	conn := b.Conns[0]
	// Sabotage the close: steal the ledger claim so Disconnect persistently
	// refuses (models an operator or API consumer racing the window).
	if err := c.ledger.Release("x", connKey(conn.ID)); err != nil {
		t.Fatal(err)
	}
	before := c.ins.bookingCloseErrs.Value()
	k.Run()
	if !b.Done.Done() {
		t.Fatal("booking never resolved")
	}
	if b.Done.Err() == nil || b.CloseErr == nil {
		t.Fatal("close failure was swallowed: booking reported clean close")
	}
	if b.phase != bookingClosed {
		t.Errorf("phase = %d, want closed", b.phase)
	}
	if got := c.ins.bookingCloseErrs.Value() - before; got != float64(c.retry.MaxAttempts) {
		t.Errorf("close error counter advanced by %v, want %d (one per attempt)", got, c.retry.MaxAttempts)
	}
	// The leak is real and visible: the component still holds its resources.
	if conn.State != StateActive {
		t.Errorf("sabotaged component = %v, want still active", conn.State)
	}
	// An operator can repair the books and release it normally.
	if err := c.ledger.Claim("x", connKey(conn.ID)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Disconnect("x", conn.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	checkInvariants(t, c, -1)
}

// TestBookingSetupFailureReleasesSiblings pins the openBooking bugfix: when
// one component of a composite window fails to provision, the components that
// did come up must be released — not stranded holding capacity for a window
// that will never open.
func TestBookingSetupFailureReleasesSiblings(t *testing.T) {
	k, c := newTestbed(t, 91)
	at := k.Now().Add(time.Hour)
	// 12G = one 10G wavelength + two 1G circuits: three components whose
	// setups race. One EMS failure kills exactly one of them.
	b, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-B", Rate: 12 * bw.Gbps,
	}, at, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(at.Add(-time.Second))
	c.roadmEMS.InjectFailures(1, errors.New("vendor EMS rejected add-drop"))
	k.Run()
	if b.Done.Err() == nil || b.SetupErr == nil {
		t.Fatal("booking reported success despite component setup failure")
	}
	if b.phase != bookingFailed {
		t.Errorf("phase = %d, want failed", b.phase)
	}
	for _, conn := range b.Conns {
		if conn.State != StateReleased {
			t.Errorf("component %s = %v after failed window, want released", conn.ID, conn.State)
		}
	}
	if u := c.ledger.UsageOf("x"); u.Connections != 0 || u.Bandwidth != 0 {
		t.Errorf("failed booking still billing the customer: %+v", u)
	}
	s := c.Snapshot()
	if s.SlotsInUse != 0 {
		t.Errorf("ODU slots leaked: %+v", s)
	}
	checkInvariants(t, c, -1)
	// The pool is whole: the same request succeeds once the EMS behaves.
	b2, err := c.ScheduleConnect(Request{
		Customer: "x", From: "DC-A", To: "DC-B", Rate: 12 * bw.Gbps,
	}, k.Now().Add(time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if b2.Done.Err() != nil {
		t.Fatalf("clean retry failed: %v", b2.Done.Err())
	}
	checkInvariants(t, c, -2)
}

// TestBookingChaosSoak drives a calendar of overlapping bookings — simple and
// composite — through the probabilistic EMS fault model with fiber cuts mixed
// in, on a journaled controller. Every booking must resolve exactly once with
// coherent phase/error semantics, resources must never leak, and the survivor
// journal must still rehydrate to the live state.
func TestBookingChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			profile := faults.DefaultProfile()
			dir := t.TempDir()
			store := openJournal(t, dir)
			k := sim.NewKernel(seed)
			c, err := New(k, topo.Testbed(), Config{
				AutoRepair: true, Faults: &profile, Journal: store, SnapshotEvery: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := k.Rand()
			sites := []topo.SiteID{"DC-A", "DC-B", "DC-C"}
			var books []*Booking
			for i := 0; i < 40; i++ {
				a := sites[rng.Intn(len(sites))]
				b := sites[rng.Intn(len(sites))]
				if a == b {
					continue
				}
				rate := []bw.Rate{bw.Rate1G, bw.Rate10G, bw.GbpsOf(12)}[rng.Intn(3)]
				at := k.Now().Add(time.Duration(rng.Intn(180)) * time.Minute)
				hold := time.Duration(10+rng.Intn(120)) * time.Minute
				bk, err := c.ScheduleConnect(Request{Customer: "csp", From: a, To: b, Rate: rate}, at, hold)
				if err != nil {
					t.Fatal(err)
				}
				books = append(books, bk)
				if rng.Intn(6) == 0 {
					links := c.Graph().Links()
					l := links[rng.Intn(len(links))]
					if c.Plant().LinkUp(l.ID) {
						c.CutFiber(l.ID) //lint:allow errcheck verified up
					}
				}
				k.RunFor(time.Duration(rng.Intn(45)) * time.Minute)
				checkInvariants(t, c, i)
				if t.Failed() {
					t.FailNow()
				}
			}
			k.Run()
			checkInvariants(t, c, -1)
			for _, bk := range books {
				if !bk.Done.Done() {
					t.Fatalf("booking %d never resolved", bk.ID)
				}
				switch bk.phase {
				case bookingClosed:
					if bk.SetupErr != nil {
						t.Errorf("booking %d closed but has a setup error: %v", bk.ID, bk.SetupErr)
					}
					if (bk.Done.Err() != nil) != (bk.CloseErr != nil) {
						t.Errorf("booking %d: Done.Err=%v but CloseErr=%v", bk.ID, bk.Done.Err(), bk.CloseErr)
					}
				case bookingFailed:
					if bk.SetupErr == nil || bk.Done.Err() == nil {
						t.Errorf("booking %d failed without an error", bk.ID)
					}
				default:
					t.Errorf("booking %d resolved in phase %d", bk.ID, bk.phase)
				}
				for _, conn := range bk.Conns {
					if conn.State != StateReleased {
						t.Errorf("booking %d component %s = %v after soak, want released", bk.ID, conn.ID, conn.State)
					}
				}
			}
			// The journal written under chaos still rehydrates to the live state.
			want, err := c.DurableState()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			store2 := openJournal(t, dir)
			defer store2.Close()
			k2 := sim.NewKernel(seed + 500)
			c2, err := Rehydrate(k2, topo.Testbed(), Config{
				AutoRepair: true, Faults: &profile, Journal: store2, SnapshotEvery: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c2.DurableState()
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Errorf("post-soak recovery diverges:\nlive:      %s\nrecovered: %s", want, got)
			}
		})
	}
}
