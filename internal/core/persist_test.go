package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// openJournal opens a journal store in a fresh temp dir (or an existing one).
func openJournal(t *testing.T, dir string) *journal.Store {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// runJournaledOps drives a mixed random workload — connects (both layers, all
// protection schemes), disconnects, adjusts, cuts, rolls, housekeeping,
// bookings, quota changes — against a journaled controller.
func runJournaledOps(t *testing.T, k *sim.Kernel, c *Controller, steps int) {
	t.Helper()
	rng := k.Rand()
	sites := []topo.SiteID{"DC-A", "DC-B", "DC-C"}
	rates := []bw.Rate{bw.Rate1G, bw.Rate2G5, bw.Rate10G}
	protects := []Protection{Restore, Unprotected, OnePlusOne, Restore}
	var live []*Connection

	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				break
			}
			rate := rates[rng.Intn(len(rates))]
			p := protects[rng.Intn(len(protects))]
			if layerFor(rate) == LayerOTN && p == OnePlusOne {
				p = Restore
			}
			conn, _, err := c.Connect(Request{Customer: "fuzz", From: a, To: b, Rate: rate, Protect: p})
			if err == nil {
				live = append(live, conn)
			}
		case 3, 4:
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			conn := live[i]
			if conn.State == StateActive || conn.State == StateDown {
				c.Disconnect("fuzz", conn.ID) //lint:allow errcheck may race with teardown
			}
			live = append(live[:i], live[i+1:]...)
		case 5:
			for _, conn := range live {
				if conn.Layer == LayerOTN && conn.State == StateActive {
					c.AdjustRate("fuzz", conn.ID, rates[rng.Intn(2)]) //lint:allow errcheck may be blocked
					break
				}
			}
		case 6:
			links := c.Graph().Links()
			l := links[rng.Intn(len(links))]
			if c.Plant().LinkUp(l.ID) {
				c.CutFiber(l.ID) //lint:allow errcheck verified up
			}
		case 7:
			for _, conn := range live {
				if conn.Layer == LayerDWDM && conn.State == StateActive && conn.Protect != OnePlusOne {
					if rng.Intn(2) == 0 {
						c.BridgeAndRoll("fuzz", conn.ID, nil) //lint:allow errcheck may lack disjoint path
					} else {
						c.Regroom("fuzz", conn.ID) //lint:allow errcheck may be optimal already
					}
					break
				}
			}
		case 8:
			if rng.Intn(2) == 0 {
				c.DefragmentSpectrum()
			} else {
				c.ReclaimIdlePipes()
			}
		case 9:
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				break
			}
			at := c.k.Now().Add(time.Duration(rng.Intn(60)) * time.Minute)
			hold := time.Duration(1+rng.Intn(120)) * time.Minute
			rate := rates[rng.Intn(len(rates))]
			if rng.Intn(4) == 0 {
				rate = bw.GbpsOf(12) // composite: 10G wavelength + 2x1G circuits
			}
			c.ScheduleConnect(Request{Customer: "fuzz", From: a, To: b, Rate: rate}, at, hold) //lint:allow errcheck may be blocked
		case 10:
			c.SetQuota("fuzz", inventory.Quota{MaxBandwidth: bw.GbpsOf(float64(100 + rng.Intn(400)))})
		case 11:
			k.RunFor(time.Duration(rng.Intn(120)) * time.Minute)
		}
		checkInvariants(t, c, step)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestJournalRoundTrip drives the random workload against a journaled
// controller, then rebuilds a second controller from the journal alone and
// requires the recovered state to be byte-identical to the live one — the
// durability tentpole's core contract.
func TestJournalRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			store := openJournal(t, dir)
			k := sim.NewKernel(seed)
			c, err := New(k, topo.Testbed(), Config{AutoRepair: true, Journal: store, SnapshotEvery: 16})
			if err != nil {
				t.Fatal(err)
			}
			runJournaledOps(t, k, c, 120)
			k.Run() // drain: teardowns, repairs, booking windows
			checkInvariants(t, c, -1)

			want, err := c.DurableState()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover in a brand new process-worth of state.
			store2 := openJournal(t, dir)
			defer store2.Close()

			// The pure fold of snapshot+WAL must already match the live state.
			replayed, err := ReplayDurable(store2.Recovered())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, replayed) {
				t.Errorf("pure replay diverges from live state:\nlive:   %s\nreplay: %s", want, replayed)
			}

			k2 := sim.NewKernel(seed + 9999)
			c2, err := Rehydrate(k2, topo.Testbed(), Config{AutoRepair: true, Journal: store2, SnapshotEvery: 16})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c2.DurableState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("recovered state diverges:\nlive:      %s\nrecovered: %s", want, got)
			}
			if k2.Now() != k.Now() {
				t.Errorf("recovered clock = %v, want %v", k2.Now(), k.Now())
			}
			checkInvariants(t, c2, -2)
		})
	}
}

// TestDurableStateByteStable pins satellite determinism: the serialization is
// a pure function of the state — repeated calls and same-seed re-runs yield
// identical bytes (no map-iteration order leaks).
func TestDurableStateByteStable(t *testing.T) {
	build := func() []byte {
		k := sim.NewKernel(42)
		store := openJournal(t, t.TempDir())
		defer store.Close()
		c, err := New(k, topo.Testbed(), Config{AutoRepair: true, Journal: store})
		if err != nil {
			t.Fatal(err)
		}
		runJournaledOps(t, k, c, 80)
		k.Run()
		b1, err := c.DurableState()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := c.DurableState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("two DurableState calls on the same controller differ")
		}
		return b1
	}
	if !bytes.Equal(build(), build()) {
		t.Error("same-seed runs serialize differently")
	}
}

// TestRehydrateReArmsPendingBooking crashes a controller between scheduling a
// booking and its window opening: the recovered controller must open the
// window at the booked time, provision, hold, and close it.
func TestRehydrateReArmsPendingBooking(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	k := sim.NewKernel(7)
	c, err := New(k, topo.Testbed(), Config{Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	at := k.Now().Add(2 * time.Hour)
	b, err := c.ScheduleConnect(Request{Customer: "csp1", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}, at, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash" before the window opens: only the booking commit is on disk.
	k.RunFor(time.Minute)
	if b.Done.Done() {
		t.Fatal("booking resolved prematurely")
	}
	store.Close()

	store2 := openJournal(t, dir)
	defer store2.Close()
	k2 := sim.NewKernel(8)
	c2, err := Rehydrate(k2, topo.Testbed(), Config{Journal: store2})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.Booking("csp1", b.ID)
	if err != nil {
		t.Fatalf("booking not recovered: %v", err)
	}
	k2.Run()
	if !b2.Done.Done() {
		t.Fatal("recovered booking never resolved")
	}
	if err := b2.Done.Err(); err != nil {
		t.Fatalf("recovered booking failed: %v", err)
	}
	if b2.phase != bookingClosed {
		t.Errorf("booking phase = %d, want closed", b2.phase)
	}
	if len(b2.Conns) == 0 {
		t.Fatal("recovered booking provisioned nothing")
	}
	for _, conn := range b2.Conns {
		if conn.State != StateReleased {
			t.Errorf("component %s = %v after window close, want released", conn.ID, conn.State)
		}
	}
	checkInvariants(t, c2, -1)
}

// TestRehydrateRestartMidWorkload stops a run mid-flight (events still
// queued), recovers, and checks the committed prefix matches the pure replay:
// in-flight choreography rolls back, committed state survives exactly.
func TestRehydrateRestartMidWorkload(t *testing.T) {
	dir := t.TempDir()
	store := openJournal(t, dir)
	k := sim.NewKernel(11)
	c, err := New(k, topo.Testbed(), Config{AutoRepair: true, Journal: store, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	runJournaledOps(t, k, c, 60)
	// Do NOT drain: whatever is mid-flight is abandoned, as in a crash.
	store.Close()

	store2 := openJournal(t, dir)
	defer store2.Close()
	replayed, err := ReplayDurable(store2.Recovered())
	if err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel(12)
	c2, err := Rehydrate(k2, topo.Testbed(), Config{AutoRepair: true, Journal: store2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, got) {
		t.Errorf("recovered state diverges from replay:\nreplay:    %s\nrecovered: %s", replayed, got)
	}
	checkInvariants(t, c2, -1)
	// The recovered controller keeps working: drain its queue, then land one
	// more connection end to end.
	k2.Run()
	checkInvariants(t, c2, -2)
	mustConnect(t, k2, c2, Request{Customer: "csp9", From: "DC-A", To: "DC-B", Rate: bw.Rate2G5})
	checkInvariants(t, c2, -3)
}
