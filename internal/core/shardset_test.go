package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func newShardSet(t *testing.T, shards int, cfg ShardSetConfig) *ShardSet {
	t.Helper()
	cfg.Shards = shards
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s, err := NewShardSet(topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardConnect provisions via the owning shard and drives the set in
// lockstep until the connection is active.
func shardConnect(t *testing.T, s *ShardSet, cust, from, to string, rate bw.Rate) *Connection {
	t.Helper()
	c := s.For(inventory.Customer(cust))
	conn, job, err := c.Connect(Request{
		Customer: inventory.Customer(cust),
		From:     topo.SiteID(from),
		To:       topo.SiteID(to),
		Rate:     rate,
	})
	if err != nil {
		t.Fatalf("Connect(%s %s->%s): %v", cust, from, to, err)
	}
	if err := s.Await(job); err != nil {
		t.Fatalf("setup job for %s: %v", cust, err)
	}
	if conn.State != StateActive {
		t.Fatalf("connection %s state = %v, want active", conn.ID, conn.State)
	}
	return conn
}

// customersByShard returns perShard customers for every shard, derived by
// probing the hash — the test stays correct if the hash function changes.
func customersByShard(t *testing.T, s *ShardSet, perShard int) [][]string {
	t.Helper()
	out := make([][]string, s.Len())
	filled := 0
	for i := 0; filled < s.Len(); i++ {
		if i > 10000 {
			t.Fatal("could not find customers for every shard")
		}
		cust := fmt.Sprintf("cust-%d", i)
		sh := s.ShardFor(inventory.Customer(cust))
		if len(out[sh]) < perShard {
			out[sh] = append(out[sh], cust)
			if len(out[sh]) == perShard {
				filled++
			}
		}
	}
	return out
}

func auditSetClean(t *testing.T, s *ShardSet) {
	t.Helper()
	for _, f := range s.AuditInvariants() {
		t.Errorf("audit: %s", f)
	}
}

// TestBookingScopedToCustomer pins the tenant-isolation fix: a booking ID is
// only addressable by the customer that owns it. Before the fix Booking(id)
// returned any tenant's booking to any caller.
func TestBookingScopedToCustomer(t *testing.T) {
	k, c := newTestbed(t, 1)
	at := k.Now().Add(time.Hour)
	b, err := c.ScheduleConnect(Request{Customer: "csp1", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}, at, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	if got, err := c.Booking("csp1", b.ID); err != nil || got != b {
		t.Fatalf("owner lookup = (%v, %v), want the booking", got, err)
	}
	if got, err := c.Booking("csp2", b.ID); err == nil {
		t.Fatalf("cross-tenant lookup returned %+v, want error", got)
	}
	if got := c.Bookings("csp2"); len(got) != 0 {
		t.Errorf("Bookings(csp2) = %d entries, want 0", len(got))
	}
	if got := c.Bookings("csp1"); len(got) != 1 {
		t.Errorf("Bookings(csp1) = %d entries, want 1", len(got))
	}
	if _, err := c.CancelBooking("csp2", b.ID); err == nil {
		t.Error("cross-tenant cancel succeeded, want error")
	}
	// The owner can still cancel; a pending window resolves immediately.
	job, err := c.CancelBooking("csp1", b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Done() || job.Err() != nil {
		t.Errorf("pending-booking cancel: done=%v err=%v", job.Done(), job.Err())
	}
	// The descheduled window never opens.
	k.Run()
	if len(b.Conns) != 0 {
		t.Errorf("cancelled booking provisioned %d conns", len(b.Conns))
	}
	auditClean(t, c)
}

// TestShardSetRoutesAndIsolates: customers land on their hash shard, get
// shard-prefixed connection IDs, and both the per-shard and cross-shard
// audits stay clean.
func TestShardSetRoutesAndIsolates(t *testing.T) {
	s := newShardSet(t, 4, ShardSetConfig{})
	custs := customersByShard(t, s, 1)
	conns := map[string]*Connection{}
	for sh, cc := range custs {
		for _, cust := range cc {
			conn := shardConnect(t, s, cust, "DC-A", "DC-C", bw.Rate10G)
			conns[cust] = conn
			if want := fmt.Sprintf("S%d.", sh); !strings.HasPrefix(string(conn.ID), want) {
				t.Errorf("conn ID %s for %s lacks shard prefix %s", conn.ID, cust, want)
			}
		}
	}
	// Cross-shard search finds every connection.
	for cust, conn := range conns {
		if got := s.Conn(conn.ID); got != conn {
			t.Errorf("Conn(%s) = %v, want %s's connection", conn.ID, got, cust)
		}
	}
	// The merged operator log saw every shard's setups.
	shardsSeen := map[string]bool{}
	for _, e := range s.Events() {
		if i := strings.IndexByte(string(e.Conn), '.'); i > 0 {
			shardsSeen[string(e.Conn)[:i]] = true
		}
	}
	if len(shardsSeen) != 4 {
		t.Errorf("merged events cover %d shards, want 4", len(shardsSeen))
	}
	st := s.Snapshot()
	if st.Active != len(conns) {
		t.Errorf("summed Active = %d, want %d", st.Active, len(conns))
	}
	auditSetClean(t, s)
}

// TestShardSetCoordinatesSpectrum: shards replicate the plant, so without
// the coordinator two shards' first-fit searches would light the same
// channel on the same fiber. With it, every lit (link, channel) is owned by
// exactly one shard.
func TestShardSetCoordinatesSpectrum(t *testing.T) {
	s := newShardSet(t, 2, ShardSetConfig{})
	custs := customersByShard(t, s, 2)
	for _, cc := range custs {
		for _, cust := range cc {
			shardConnect(t, s, cust, "DC-A", "DC-C", bw.Rate10G)
		}
	}
	// Channel ownership is disjoint across shards on every link.
	for _, l := range topo.Testbed().Links() {
		used := map[optics.Channel]int{}
		for i := 0; i < s.Len(); i++ {
			sp := s.Shard(i).Ctrl.Plant().Spectrum(l.ID)
			for _, ch := range sp.UsedChannels() {
				if prev, clash := used[ch]; clash {
					t.Errorf("link %s channel %d lit by shard %d and shard %d", l.ID, ch, prev, i)
				}
				used[ch] = i
			}
		}
	}
	auditSetClean(t, s)
}

// TestShardSetAuditDetectsCrossLeaks: the cross-shard sweep catches both
// directions of drift — a lit channel with no coordinator claim behind it,
// and a coordinator claim with no lit channel behind it.
func TestShardSetAuditDetectsCrossLeaks(t *testing.T) {
	s := newShardSet(t, 2, ShardSetConfig{})

	// Leak 1: shard 1 lights a channel with the broker bypassed (the bug
	// this audit exists to catch: a reservation path that skips the gate).
	c1 := s.Shard(1).Ctrl
	c1.Plant().SetBroker(nil)
	if err := c1.Plant().Spectrum("I-IV").Reserve(7, "rogue"); err != nil {
		t.Fatal(err)
	}
	c1.Plant().SetBroker(s.Coordinator().Broker(1))

	// Leak 2: shard 0 claims a channel it never lights.
	if err := s.Coordinator().Broker(0).ClaimChannel("I-III", 9, "phantom"); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, f := range s.AuditInvariants() {
		kinds = append(kinds, f.Kind)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "xshard-spectrum") {
		t.Errorf("audit missed the unclaimed lit channel: %v", kinds)
	}
	if !strings.Contains(joined, "xshard-leak") {
		t.Errorf("audit missed the unlit claim: %v", kinds)
	}
}

// TestCrossShardAuditHoldsMidChoreography: a groomed connect on each of two
// shards forces a pipe build — carrier wavelength claimed and lit, EMS ladder
// in flight, pipe not yet registered — and the cross-shard audit must balance
// after every single event of it, not only once drained.
func TestCrossShardAuditHoldsMidChoreography(t *testing.T) {
	s := newShardSet(t, 2, ShardSetConfig{})
	for _, cc := range customersByShard(t, s, 1) {
		cust := inventory.Customer(cc[0])
		if _, _, err := s.For(cust).Connect(Request{Customer: cust, From: "DC-A", To: "DC-C", Rate: bw.Rate1G}); err != nil {
			t.Fatal(err)
		}
	}
	auditSetClean(t, s)
	steps := 0
	for s.Step() {
		steps++
		if fs := s.AuditInvariants(); len(fs) > 0 {
			t.Fatalf("audit after event %d: %v", steps, fs)
		}
	}
	for i, sh := range s.Shards() {
		if sh.Ctrl.Snapshot().Pipes == 0 {
			t.Errorf("shard %d built no pipe: the choreography under test never ran", i)
		}
	}
}

// TestShardSetLockstepDeterministic: equal seeds give byte-identical merged
// event logs, shard clocks included — the property the lockstep driver
// exists to preserve.
func TestShardSetLockstepDeterministic(t *testing.T) {
	run := func() []string {
		s := newShardSet(t, 3, ShardSetConfig{})
		custs := customersByShard(t, s, 2)
		for _, cc := range custs {
			for _, cust := range cc {
				c := s.For(inventory.Customer(cust))
				if _, _, err := c.Connect(Request{
					Customer: inventory.Customer(cust), From: "DC-A", To: "DC-C", Rate: bw.Rate10G,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Drain()
		var lines []string
		for _, e := range s.Events() {
			lines = append(lines, fmt.Sprintf("%v %s %s %s", e.At, e.Conn, e.Kind, e.Text))
		}
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestShardSetQuotaLandsOnOwningShard pins the SetQuota routing fix: the
// quota is applied and journaled by exactly the customer's shard, is safe to
// change while another shard's choreography is in flight, and survives
// recovery from that shard's journal.
func TestShardSetQuotaLandsOnOwningShard(t *testing.T) {
	dir := t.TempDir()
	s := newShardSet(t, 2, ShardSetConfig{StateDir: dir})
	custs := customersByShard(t, s, 1)
	custA, custB := custs[0][0], custs[1][0] // different shards by construction

	// custB's setup choreography is in flight on its shard...
	cB := s.For(inventory.Customer(custB))
	connB, jobB, err := cB.Connect(Request{
		Customer: inventory.Customer(custB), From: "DC-A", To: "DC-C", Rate: bw.Rate10G,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...when custA's quota changes. It must land on custA's shard only.
	s.SetQuota(inventory.Customer(custA), inventory.Quota{MaxConnections: 1})
	if err := s.Await(jobB); err != nil {
		t.Fatalf("in-flight setup disturbed by quota change: %v", err)
	}
	if connB.State != StateActive {
		t.Fatalf("custB connection = %v, want active", connB.State)
	}

	// The quota binds on custA's shard: one connection fits, two don't.
	shardConnect(t, s, custA, "DC-A", "DC-B", bw.Rate1G)
	cA := s.For(inventory.Customer(custA))
	if _, _, err := cA.Connect(Request{
		Customer: inventory.Customer(custA), From: "DC-A", To: "DC-B", Rate: bw.Rate1G,
	}); err == nil {
		t.Fatal("second custA connection admitted past MaxConnections=1")
	}
	// custB is not subject to custA's quota.
	shardConnect(t, s, custB, "DC-A", "DC-B", bw.Rate1G)
	auditSetClean(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: the quota comes back from the owning shard's journal.
	s2 := newShardSet(t, 2, ShardSetConfig{StateDir: dir})
	defer s2.Close()
	cA2 := s2.For(inventory.Customer(custA))
	if _, _, err := cA2.Connect(Request{
		Customer: inventory.Customer(custA), From: "DC-A", To: "DC-B", Rate: bw.Rate1G,
	}); err == nil {
		t.Fatal("recovered shard forgot custA's quota")
	}
	auditSetClean(t, s2)
}

// TestShardSetRehydratesEveryShard: a sharded deployment closes and comes
// back with every shard's connections, OTN pipes and spectrum claims rebuilt
// from that shard's own journal.
func TestShardSetRehydratesEveryShard(t *testing.T) {
	dir := t.TempDir()
	s := newShardSet(t, 3, ShardSetConfig{StateDir: dir})
	custs := customersByShard(t, s, 1)
	ids := map[string]ConnID{}
	for _, cc := range custs {
		for _, cust := range cc {
			ids[cust] = shardConnect(t, s, cust, "DC-A", "DC-C", bw.Rate10G).ID
			// A groomed circuit too, so every journal carries a pipe and
			// its carrier wavelength.
			shardConnect(t, s, cust, "DC-A", "DC-B", bw.Rate1G)
		}
	}
	auditSetClean(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newShardSet(t, 3, ShardSetConfig{StateDir: dir})
	defer s2.Close()
	for i, sh := range s2.Shards() {
		if sh.Ctrl.Snapshot().Pipes == 0 {
			t.Errorf("shard %d rehydrated no OTN pipe", i)
		}
	}
	for cust, id := range ids {
		conn := s2.Conn(id)
		if conn == nil || conn.State != StateActive {
			t.Errorf("connection %s of %s not active after rehydration: %+v", id, cust, conn)
			continue
		}
		if got := s2.ShardFor(conn.Customer); !strings.HasPrefix(string(id), fmt.Sprintf("S%d.", got)) {
			t.Errorf("connection %s rehydrated on the wrong shard (owner %d)", id, got)
		}
	}
	// The coordinator's claims were rebuilt: audits (including xshard-leak)
	// balance.
	auditSetClean(t, s2)
}

// TestShardSetCrashRecoveryByteEqual: crash the set mid-choreography (setups
// in flight on every shard, nothing drained) and recover. Every shard must
// rehydrate from its own journal to a state byte-identical to the durable
// state the live shard held at the crash instant.
func TestShardSetCrashRecoveryByteEqual(t *testing.T) {
	dir := t.TempDir()
	s := newShardSet(t, 3, ShardSetConfig{StateDir: dir})
	// Shadow each shard's durable state at every journal append: the ground
	// truth recovery must land on is the state at the last commit, not the
	// crash instant (meters and in-flight work are lost by design).
	want := make([][]byte, s.Len())
	for i := 0; i < s.Len(); i++ {
		i, ctrl := i, s.Shard(i).Ctrl
		s.Shard(i).Store.SetOnAppend(func(journal.Entry) {
			st, err := ctrl.DurableState()
			if err != nil {
				t.Errorf("shard %d: %v", i, err)
				return
			}
			want[i] = st
		})
	}
	// First wave completes and commits on every shard...
	custs := customersByShard(t, s, 2)
	for _, cc := range custs {
		shardConnect(t, s, cc[0], "DC-A", "DC-C", bw.Rate10G)
	}
	// ...then a second wave is mid-choreography when the "process" dies
	// (wavelength setups take ~60 s; we crash 30 s in).
	for _, cc := range custs {
		c := s.For(inventory.Customer(cc[1]))
		if _, _, err := c.Connect(Request{
			Customer: inventory.Customer(cc[1]), From: "DC-A", To: "DC-B", Rate: bw.Rate10G,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Advance(30 * time.Second)
	for i, w := range want {
		if w == nil {
			t.Fatalf("shard %d journaled nothing before the crash", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newShardSet(t, 3, ShardSetConfig{StateDir: dir})
	defer s2.Close()
	for i := 0; i < s2.Len(); i++ {
		got, err := s2.Shard(i).Ctrl.DurableState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("shard %d rehydrated state diverges from its pre-crash durable state", i)
		}
	}
	// The recovered books balance, including the coordinator's rebuilt
	// spectrum claims.
	auditSetClean(t, s2)
}

// TestSingleShardSetMatchesController: a 1-shard set is byte-compatible with
// the plain controller — no coordinator, no ID prefixes, same journal layout.
func TestSingleShardSetMatchesController(t *testing.T) {
	s := newShardSet(t, 1, ShardSetConfig{})
	if s.Coordinator() != nil {
		t.Error("single-shard set built a coordinator")
	}
	conn := shardConnect(t, s, "acme", "DC-A", "DC-C", bw.Rate10G)
	if strings.Contains(string(conn.ID), ".") {
		t.Errorf("unsharded conn ID %s carries a shard prefix", conn.ID)
	}
	auditSetClean(t, s)
}

// TestShardSetJournalPassThrough: a caller's own store serves a one-shard
// set without StateDir, and is refused where it would be shared by shards or
// shadowed by the stores StateDir opens.
func TestShardSetJournalPassThrough(t *testing.T) {
	store := openJournal(t, t.TempDir())
	defer store.Close()
	s := newShardSet(t, 1, ShardSetConfig{Core: Config{Journal: store}})
	shardConnect(t, s, "acme", "DC-A", "DC-C", bw.Rate10G)
	if s.Shard(0).Store != nil || store.Seq() == 0 {
		t.Errorf("one-shard set did not journal to the caller's store (seq %d)", store.Seq())
	}
	for _, cfg := range []ShardSetConfig{
		{Shards: 2, Core: Config{Journal: store}},
		{Shards: 1, StateDir: t.TempDir(), Core: Config{Journal: store}},
	} {
		if _, err := NewShardSet(topo.Testbed(), cfg); err == nil {
			t.Errorf("Shards %d, StateDir %q: Core.Journal accepted", cfg.Shards, cfg.StateDir)
		}
	}
}

// mergedLogSession provisions two customers per shard on three shards, tears
// half of them down, and returns the set with its merged log rendered.
func mergedLogSession(t *testing.T) (*ShardSet, []*Connection, []byte) {
	t.Helper()
	s := newShardSet(t, 3, ShardSetConfig{})
	var conns []*Connection
	for _, cc := range customersByShard(t, s, 2) {
		for i, cust := range cc {
			conn := shardConnect(t, s, cust, "DC-A", "DC-B", bw.Rate1G)
			conns = append(conns, conn)
			if i == 0 {
				job, err := s.For(inventory.Customer(cust)).Disconnect(inventory.Customer(cust), conn.ID)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Await(job); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var b bytes.Buffer
	for _, e := range s.Events() {
		fmt.Fprintf(&b, "%v %s %s %s\n", e.At, e.Conn, e.Kind, e.Text)
	}
	return s, conns, b.Bytes()
}

// TestShardSetMergedLogReads: the merged audit log keeps each entry once, in
// its shard's log, and reads it through (shard, index) references. The merged
// order is frozen as a golden written by the log that kept full copies, and
// every read path must agree with it, cursors included.
func TestShardSetMergedLogReads(t *testing.T) {
	s, conns, rendered := mergedLogSession(t)
	golden := filepath.Join("testdata", "merged_events.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, rendered, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered, want) {
		t.Fatalf("merged log moved:\n got:\n%s\nwant:\n%s", rendered, want)
	}

	all := s.Events()
	total := 0
	for _, sh := range s.Shards() {
		total += sh.Ctrl.events.len()
	}
	if len(all) == 0 || len(all) != total {
		t.Errorf("merged log holds %d entries, the shards %d", len(all), total)
	}
	for _, cursor := range []int{-1, 0, 1, len(all) / 2, len(all) - 1, len(all), len(all) + 5} {
		page, next := s.EventsSince(cursor)
		from := max(0, min(cursor, len(all)))
		if next != len(all) || len(page) != len(all)-from || (len(page) > 0 && !reflect.DeepEqual(page, all[from:])) {
			t.Errorf("EventsSince(%d) = %d entries, next %d; want %d entries, next %d", cursor, len(page), next, len(all)-from, len(all))
		}
	}
	for _, conn := range conns {
		var want []Event
		for _, e := range all {
			if e.Conn == conn.ID {
				want = append(want, e)
			}
		}
		if got := s.EventsFor(conn.ID); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("EventsFor(%s) = %d entries, want %d", conn.ID, len(got), len(want))
		}
	}
}

// TestShardSetBookingCycles pushes 48 tenants through one full bandwidth
// calendar cycle each — a booked window that provisions, holds and releases —
// with windows spaced per shard so admission never blocks. Every cycle
// completes cleanly and the books balance.
func TestShardSetBookingCycles(t *testing.T) {
	book := func(t *testing.T, s *ShardSet) []*Booking {
		t.Helper()
		pairs := [][2]topo.SiteID{{"DC-A", "DC-C"}, {"DC-A", "DC-B"}, {"DC-B", "DC-C"}}
		next := make([]int, s.Len()) // per-shard window sequence
		var bookings []*Booking
		for i := 0; i < 48; i++ {
			cust := inventory.Customer(fmt.Sprintf("tenant-%04d", i))
			sh := s.ShardFor(cust)
			slot := next[sh]
			next[sh]++
			rate := bw.Rate10G // even tenants take a wavelength...
			if i%2 == 1 {
				rate = bw.Rate1G // ...odd ones ride shared OTN pipes
			}
			p := pairs[i%len(pairs)]
			at := sim.Time(0).Add(time.Duration(slot)*10*time.Minute + time.Minute)
			b, err := s.For(cust).ScheduleConnect(Request{
				Customer: cust, From: p[0], To: p[1], Rate: rate,
			}, at, 5*time.Minute)
			if err != nil {
				t.Fatalf("tenant %d: %v", i, err)
			}
			bookings = append(bookings, b)
		}
		return bookings
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newShardSet(t, shards, ShardSetConfig{})
			defer s.Close()
			bookings := book(t, s)
			s.Drain()
			for _, b := range bookings {
				if !b.Done.Done() || b.CloseErr != nil {
					t.Errorf("%s: done=%v close=%v", b.Req.Customer, b.Done.Done(), b.CloseErr)
				}
				if b.SetupErr != nil {
					t.Errorf("%s: setup failed: %v", b.Req.Customer, b.SetupErr)
				}
			}
			for _, f := range s.AuditInvariants() {
				t.Errorf("audit: %s", f)
			}
		})
	}
}

// TestMergedLogSeesRehydrateEvents: what a shard logs while it is rebuilt from
// its journal — before the set can observe it — is in the merged log all the
// same, for one shard and for four: the merged log holds exactly what the
// shards hold.
func TestMergedLogSeesRehydrateEvents(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s := newShardSet(t, shards, ShardSetConfig{StateDir: dir})
			shardConnect(t, s, "acme", "DC-A", "DC-C", bw.Rate10G)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := newShardSet(t, shards, ShardSetConfig{StateDir: dir})
			defer s2.Close()
			evs := s2.Events()
			recovered := 0
			for _, e := range evs {
				if e.Kind == "recovered" {
					recovered++
				}
			}
			if recovered != 1 {
				t.Errorf("merged log shows %d recovered entries, want the owning shard's one: %v", recovered, evs)
			}
			if got := s2.Snapshot().Events; len(evs) != got || got == 0 {
				t.Errorf("merged log holds %d entries, the shards %d", len(evs), got)
			}
		})
	}
}

// TestShardForMatchesFNV: placement is persisted, so the inlined hash must
// pick the shard hash/fnv's New32a picked, for every shard count — and pick
// it without allocating, since every request routes through it.
func TestShardForMatchesFNV(t *testing.T) {
	rng := sim.NewKernel(1).Rand()
	names := make([]inventory.Customer, 1000)
	for i := range names {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		names[i] = inventory.Customer(fmt.Sprintf("tenant-%04d-%s", i, b))
	}
	for _, n := range []int{1, 2, 4, 8} {
		s := newShardSet(t, n, ShardSetConfig{})
		for _, cust := range names {
			h := fnv.New32a()
			h.Write([]byte(cust))
			if got, want := s.ShardFor(cust), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("ShardFor(%q) of %d = %d, fnv says %d", cust, n, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { s.ShardFor(names[0]) }); allocs != 0 {
			t.Errorf("ShardFor allocates %v times at %d shards", allocs, n)
		}
	}
}

// TestMergedLogRuns interleaves bursts of appends from three shards — some
// logged before the set observes them, as rehydration's are, and enough to
// cross an event-log chunk — and holds EventsSince against a flat copy of the
// merged order for every cursor. The order is stored as one run per burst,
// not one reference per entry.
func TestMergedLogRuns(t *testing.T) {
	rng := sim.NewKernel(7).Rand()
	s := &ShardSet{}
	var ref []Event
	appendTo := func(shard int, c *Controller) {
		e := Event{At: sim.Time(len(ref)), Kind: fmt.Sprintf("k%d", shard), Text: fmt.Sprintf("shard %d entry %d", shard, c.events.len())}
		c.events.append(e.At, nil, e.Kind, "%s", e.Text)
		ref = append(ref, e)
		if c.onEvent != nil {
			c.onEvent(c.events.len() - 1)
		}
	}
	for i := 0; i < 3; i++ {
		c := &Controller{}
		for j := 0; j < i; j++ { // shard i comes with i entries already logged
			appendTo(i, c)
		}
		s.shards = append(s.shards, &Shard{Ctrl: c})
		s.observe(uint32(i), c)
	}
	bursts, last := len(s.runs), 2
	for len(ref) < 2*eventChunkRows {
		shard := rng.Intn(4) % 3 // shard 0 twice as often: it crosses a chunk
		if shard != last {
			bursts, last = bursts+1, shard
		}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			appendTo(shard, s.shards[shard].Ctrl)
		}
	}
	if len(s.runs) != bursts {
		t.Errorf("merged order holds %d runs for %d bursts (%d entries)", len(s.runs), bursts, len(ref))
	}
	for cursor := -2; cursor <= len(ref)+2; cursor++ {
		from := max(0, min(cursor, len(ref)))
		got, next := s.EventsSince(cursor)
		if next != len(ref) || len(got) != len(ref)-from || (len(got) > 0 && !reflect.DeepEqual(got, ref[from:])) {
			t.Fatalf("EventsSince(%d) = %d entries, next %d; want %d entries, next %d, equal to the flat log",
				cursor, len(got), next, len(ref)-from, len(ref))
		}
	}
}

// copyStateDir copies a state directory, shard subdirectories and all.
func copyStateDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestShardSetRehydrateDeterministic: shards rehydrate concurrently, and what
// they come back as must not depend on which finishes first. A 4-shard
// continental set holds wavelengths on every shard — so the coordinator holds
// claims from all four — a down link, bookings and a quota; then it closes and
// is rebuilt from copies of its state ten times. Every shard's durable state
// and the coordinator's claims must equal the live set's, the merged log must
// come out the same each time, in shard order, and the cross-shard audit must
// be clean.
func TestShardSetRehydrateDeterministic(t *testing.T) {
	build := func(dir string) *ShardSet {
		t.Helper()
		g, err := topo.Continental(75, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewShardSet(g, ShardSetConfig{Shards: 4, Seed: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dir := t.TempDir()
	s := build(dir)
	var sites []topo.SiteID
	for _, site := range s.Shard(0).Ctrl.Graph().Sites() {
		sites = append(sites, site.ID)
	}
	classes := []struct {
		rate    bw.Rate
		protect Protection
	}{{bw.Rate10G, Restore}, {bw.Rate40G, Restore}, {bw.Rate10G, OnePlusOne}}
	custs := customersByShard(t, s, len(classes))
	var held *Connection
	for i, cc := range custs {
		active := 0
		for j, cust := range cc {
			req := Request{Customer: inventory.Customer(cust), From: sites[(i+j)%len(sites)], To: sites[(i+j+3)%len(sites)],
				Rate: classes[j].rate, Protect: classes[j].protect}
			conn, job, err := s.For(req.Customer).Connect(req)
			if err != nil {
				continue // the carrier's no: a 1+1 pair with no disjoint route
			}
			if s.Await(job) == nil && conn.State == StateActive {
				active++
				held = conn
			}
		}
		if active == 0 || len(s.Coordinator().shardClaims(i)) == 0 {
			t.Fatalf("shard %d holds no wavelength", i)
		}
	}
	owner := s.For(held.Customer)
	if _, err := owner.ScheduleConnect(Request{Customer: held.Customer, From: sites[0], To: sites[1], Rate: bw.Rate10G}, s.Now().Add(time.Minute), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := s.CutFiber(held.Route().Links[0]); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if _, err := owner.ScheduleConnect(Request{Customer: held.Customer, From: sites[1], To: sites[2], Rate: bw.Rate10G}, s.Now().Add(time.Hour), time.Hour); err != nil {
		t.Fatal(err)
	}
	s.SetQuota(held.Customer, inventory.Quota{MaxConnections: 5})
	auditSetClean(t, s)
	want := make([][]byte, s.Len())
	wantClaims := make([][]string, s.Len())
	for i, sh := range s.Shards() {
		var err error
		if want[i], err = sh.Ctrl.DurableState(); err != nil {
			t.Fatal(err)
		}
		wantClaims[i] = s.Coordinator().shardClaims(i)
		if !bytes.Contains(want[i], []byte(`"down_links":`)) {
			t.Fatalf("shard %d journaled no down link: %s", i, want[i])
		}
	}
	if held := want[s.ShardFor(held.Customer)]; !bytes.Contains(held, []byte(`"quotas":`)) || !bytes.Contains(held, []byte(`"bookings":`)) {
		t.Fatalf("owning shard journaled no quota or booking: %s", held)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var firstEvents []Event
	for run := 0; run < 10; run++ {
		s2 := build(copyStateDir(t, dir))
		for i, sh := range s2.Shards() {
			got, err := sh.Ctrl.DurableState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("run %d: shard %d rehydrated state differs from the live one", run, i)
			}
			if claims := s2.Coordinator().shardClaims(i); !reflect.DeepEqual(claims, wantClaims[i]) {
				t.Errorf("run %d: shard %d claims %v, live %v", run, i, claims, wantClaims[i])
			}
		}
		// The merged log is every shard's rehydration log in shard order.
		var inOrder []Event
		for _, sh := range s2.Shards() {
			for j := 0; j < sh.Ctrl.events.len(); j++ {
				inOrder = append(inOrder, sh.Ctrl.events.at(j))
			}
		}
		evs := s2.Events()
		if !reflect.DeepEqual(evs, inOrder) {
			t.Errorf("run %d: merged log is not the shard logs in shard order:\n%v\nwant\n%v", run, evs, inOrder)
		}
		if run == 0 {
			firstEvents = evs
		} else if !reflect.DeepEqual(evs, firstEvents) {
			t.Errorf("run %d: merged log differs from the first rebuild's", run)
		}
		auditSetClean(t, s2)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardSetRecoveryAgreesOnPlant: shard 0 decides the plant, so a
// sharded restart whose journals disagree on the down links refuses to
// serve and names the shard that differs. A cut made through the set
// reopens cleanly, and shard 0 re-sends its one crew.
func TestShardSetRecoveryAgreesOnPlant(t *testing.T) {
	dir := t.TempDir()
	s := newShardSet(t, 2, ShardSetConfig{StateDir: dir})
	if err := s.Shard(1).Ctrl.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for range 2 { // the refusal closes the journals, so a retry reads them again
		if _, err := NewShardSet(topo.Testbed(), ShardSetConfig{Shards: 2, Seed: 1, StateDir: dir}); err == nil || !strings.Contains(err.Error(), "shard-1") {
			t.Fatalf("reopen with shard 1 alone cut: err %v, want one naming shard-1", err)
		}
	}

	dir = t.TempDir()
	cfg := ShardSetConfig{StateDir: dir, Core: Config{AutoRepair: true}}
	s = newShardSet(t, 2, cfg)
	if err := s.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = newShardSet(t, 2, cfg)
	defer s.Close()
	crews := 0
	for _, e := range s.Events() {
		if e.Kind == "repair-dispatch" && strings.Contains(e.Text, "after recovery") {
			crews++
		}
	}
	if crews != 1 {
		t.Errorf("%d crews re-sent after recovery, want 1", crews)
	}
	s.Drain()
	for i, sh := range s.Shards() {
		if !sh.Ctrl.Plant().LinkUp("I-IV") {
			t.Errorf("shard %d: I-IV still down after the crew", i)
		}
	}
	auditSetClean(t, s)
}
