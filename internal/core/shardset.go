package core

// ShardSet partitions the control plane by customer. Each shard is a full
// Controller — its own event loop (sim.Kernel), its own journal, its own
// replica of the photonic plant and device pools — serving the customers that
// hash to it. The only state shared between shards is the Coordinator
// (spectrum on shared fibers) and the merged operator event/alarm logs, all
// mutex-guarded and never blocking on the simulation.
//
// Two drive modes:
//
//   - Lockstep (Step/Await/Advance/Drain): the globally earliest pending
//     event executes next, ties broken by shard index. Fully deterministic —
//     the mode every test and the serial facade use. A single-shard set
//     degenerates to exactly the pre-sharding controller: no coordinator, no
//     broker gates, plain connection IDs, byte-identical journals.
//
//   - Parallel (DrainParallel): one goroutine per shard. Shard clocks
//     advance independently; cross-shard effects serialize only on the
//     coordinator's mutex.
//
// Shard ownership rules: connections, bookings, quotas, SLA ledgers, alarm
// streams and billing are wholly owned by the customer's shard. Fiber state
// is replicated (cuts and repairs fan out to every shard so each restores its
// own customers). Spectrum is claimed through the Coordinator before any
// shard-local reservation sticks.

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sync"

	"griphon/internal/alarms"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/obs"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// ShardSetConfig assembles a ShardSet.
type ShardSetConfig struct {
	// Shards is the number of shards (values < 1 mean 1).
	Shards int
	// Seed seeds shard i's kernel with Seed+i.
	Seed int64
	// Core is the per-shard controller template. Journal, Metrics, Tracer
	// and Shard are managed per shard; everything else applies verbatim.
	Core Config
	// StateDir, when non-empty, makes every shard durable: shard i journals
	// under StateDir/shard-<i>, except a single-shard set which uses
	// StateDir itself (the historical layout).
	StateDir string
	// Fsync syncs every journal append (with StateDir).
	Fsync bool
	// Tracing gives every shard a span tracer on its own kernel.
	Tracing bool
}

// Shard is one slice of the sharded control plane.
type Shard struct {
	Kernel *sim.Kernel
	Ctrl   *Controller
	Store  *journal.Store // nil without StateDir
}

// ShardSet is a sharded control plane: N shards plus the cross-shard
// coordinator. See the package comment on drive modes and ownership rules.
type ShardSet struct {
	shards []*Shard
	coord  *Coordinator // nil for a single shard

	// mu guards the merged logs, which observers append to from whichever
	// shard (and, under parallel drive, whichever goroutine) produced them.
	mu sync.Mutex
	// events is the merged audit log's order: each entry names the shard
	// that logged it and its index in that shard's own log, which holds the
	// entry itself. Read it between drives, like the shards' own logs.
	events   []eventRef
	alarmLog *alarms.Log
}

// eventRef locates one merged-log entry in its shard's audit log.
type eventRef struct {
	shard, index uint32
}

// NewShardSet builds (or, with StateDir holding prior state, rehydrates)
// every shard.
func NewShardSet(g *topo.Graph, cfg ShardSetConfig) (*ShardSet, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	s := &ShardSet{}
	if n > 1 {
		ch := cfg.Core.Optics.Channels
		if ch <= 0 {
			ch = optics.DefaultConfig().Channels
		}
		s.coord = NewCoordinator(ch)
		s.alarmLog = alarms.NewLog(alarmLogSize * n)
	}
	for i := 0; i < n; i++ {
		k := sim.NewKernel(cfg.Seed + int64(i))
		gi := g
		if i > 0 {
			// Each shard clones the topology: Graph.Index lazily builds a
			// compiled cache, which would race under parallel drive.
			gi = g.Clone()
		}
		ccfg := cfg.Core
		ccfg.Shard = ShardInfo{Index: i, Count: n, Coordinator: s.coord}
		if n > 1 {
			ccfg.Metrics = nil // per-shard registries; merged at render time
		}
		if cfg.Tracing {
			ccfg.Tracer = obs.NewTracer(k)
		}
		var store *journal.Store
		if cfg.StateDir != "" {
			dir := cfg.StateDir
			if n > 1 {
				dir = filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d", i))
			}
			var err error
			store, err = journal.Open(dir, journal.Options{Fsync: cfg.Fsync})
			if err != nil {
				s.Close() //lint:allow errcheck construction already failed
				return nil, err
			}
			ccfg.Journal = store
		}
		var ctrl *Controller
		var err error
		if store != nil && store.HasState() {
			ctrl, err = Rehydrate(k, gi, ccfg)
		} else {
			ctrl, err = New(k, gi, ccfg)
		}
		if err != nil {
			if store != nil {
				_ = store.Close() // construction already failed; surface that error
			}
			s.Close() //lint:allow errcheck construction already failed
			return nil, err
		}
		s.shards = append(s.shards, &Shard{Kernel: k, Ctrl: ctrl, Store: store})
	}
	if n > 1 {
		s.attachObservers()
	}
	return s, nil
}

// attachObservers wires every shard's event and alarm streams into the
// merged operator logs.
func (s *ShardSet) attachObservers() {
	for i, sh := range s.shards {
		shard := uint32(i)
		sh.Ctrl.SetOnEvent(func(index int) {
			s.mu.Lock()
			s.events = append(s.events, eventRef{shard: shard, index: uint32(index)})
			s.mu.Unlock()
		})
		sh.Ctrl.SetOnAlarmGroup(func(g alarms.Group) {
			s.mu.Lock()
			s.alarmLog.Append(g)
			s.mu.Unlock()
		})
	}
}

// Len returns the shard count.
func (s *ShardSet) Len() int { return len(s.shards) }

// Shard returns shard i.
func (s *ShardSet) Shard(i int) *Shard { return s.shards[i] }

// Shards returns every shard, in index order.
func (s *ShardSet) Shards() []*Shard { return s.shards }

// Coordinator returns the cross-shard coordinator (nil for a single shard).
func (s *ShardSet) Coordinator() *Coordinator { return s.coord }

// ShardFor returns the index of the shard owning a customer.
func (s *ShardSet) ShardFor(cust inventory.Customer) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(cust)) //lint:allow errcheck fnv never fails
	return int(h.Sum32() % uint32(len(s.shards)))
}

// For returns the controller owning a customer's state.
func (s *ShardSet) For(cust inventory.Customer) *Controller {
	return s.shards[s.ShardFor(cust)].Ctrl
}

// SetQuota routes a quota change to exactly the owning shard, where it is
// journaled alongside that shard's admission state. Quota must never live on
// the coordinator: admission happens inside the owning shard's event loop,
// and a coordinator-held quota would race setups in flight on other shards.
func (s *ShardSet) SetQuota(cust inventory.Customer, q inventory.Quota) {
	s.For(cust).SetQuota(cust, q)
}

// earliest returns the shard holding the globally earliest pending event
// (ties to the lowest index).
func (s *ShardSet) earliest() (idx int, at sim.Time, ok bool) {
	for i, sh := range s.shards {
		t, has := sh.Kernel.NextAt()
		if !has {
			continue
		}
		if !ok || t.Before(at) {
			idx, at, ok = i, t, true
		}
	}
	return idx, at, ok
}

// Step executes the globally earliest pending event. It reports false when
// every shard is drained.
func (s *ShardSet) Step() bool {
	i, _, ok := s.earliest()
	if !ok {
		return false
	}
	return s.shards[i].Kernel.Step()
}

// Await drives the set in lockstep until the job completes.
func (s *ShardSet) Await(job *sim.Job) error {
	for !job.Done() {
		if !s.Step() {
			return fmt.Errorf("core: simulation stalled waiting for job")
		}
	}
	return job.Err()
}

// Now returns the latest shard clock — the set's notion of current time.
func (s *ShardSet) Now() sim.Time {
	var now sim.Time
	for _, sh := range s.shards {
		if t := sh.Kernel.Now(); t.After(now) {
			now = t
		}
	}
	return now
}

// Advance runs the set in lockstep for d of virtual time, then aligns every
// shard clock on the target instant.
func (s *ShardSet) Advance(d sim.Duration) {
	target := s.Now().Add(d)
	for {
		i, at, ok := s.earliest()
		if !ok || at.After(target) {
			break
		}
		s.shards[i].Kernel.Step()
	}
	for _, sh := range s.shards {
		sh.Kernel.RunUntil(target)
	}
}

// Drain runs the set in lockstep until no shard has pending events.
func (s *ShardSet) Drain() {
	for s.Step() {
	}
}

// DrainParallel drains every shard concurrently, one goroutine per shard.
// Determinism is traded for wall-clock scaling: shard clocks advance
// independently and merged-log order follows goroutine scheduling.
//
// Known limitation: two shards' setups can read the coordinator's
// foreign-channel mask, pick the same wavelength, and the loser's claim then
// fails its whole setup ("cross-shard spectrum conflict") instead of trying
// the next channel. Lockstep drive, the only mode griphond uses, cannot
// interleave there; the fix belongs to ROADMAP "Make sharding pay in
// wall-clock" (lock per shard). TestShardSetBookingCycles pins both sides.
func (s *ShardSet) DrainParallel() {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			sh.Kernel.Run()
		}(sh)
	}
	wg.Wait()
}

// Events returns the operator's merged audit log: arrival order across
// shards under lockstep drive (deterministic), goroutine order under
// parallel drive. A single-shard set reads the controller's log directly.
func (s *ShardSet) Events() []Event {
	evs, _ := s.EventsSince(0)
	return evs
}

// EventsFor returns the merged audit entries mentioning a connection.
func (s *ShardSet) EventsFor(id ConnID) []Event {
	if len(s.shards) == 1 {
		return s.shards[0].Ctrl.EventsFor(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, ref := range s.events {
		if e := s.at(ref); e.Conn == id {
			out = append(out, e)
		}
	}
	return out
}

// at reads one merged-log entry out of its shard's log.
func (s *ShardSet) at(ref eventRef) Event {
	return s.shards[ref.shard].Ctrl.events.at(int(ref.index))
}

// EventsSince returns merged audit entries from index cursor on, plus the
// cursor to resume from.
func (s *ShardSet) EventsSince(cursor int) ([]Event, int) {
	if len(s.shards) == 1 {
		return s.shards[0].Ctrl.EventsSince(cursor)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cursor = max(0, min(cursor, len(s.events)))
	var out []Event
	for _, ref := range s.events[cursor:] {
		out = append(out, s.at(ref))
	}
	return out, len(s.events)
}

// AlarmsSince returns alarm groups after the seq cursor. A customer query
// routes to the owning shard (cursors live in that shard's seq space); the
// operator view ("") reads the merged log.
func (s *ShardSet) AlarmsSince(seq uint64, customer string) ([]alarms.Group, uint64) {
	if len(s.shards) == 1 {
		return s.shards[0].Ctrl.AlarmsSince(seq, customer)
	}
	if customer != "" {
		return s.For(inventory.Customer(customer)).AlarmsSince(seq, customer)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var groups []alarms.Group
	for _, g := range s.alarmLog.Since(seq) {
		if v, ok := g.ForCustomer(""); ok {
			groups = append(groups, v)
		}
	}
	return groups, s.alarmLog.NextSeq() - 1
}

// SLAReport assembles a customer's availability report from the owning
// shard's ledger. The operator view ("") spans every shard's ledger.
func (s *ShardSet) SLAReport(customer string) slo.CustomerReport {
	if customer != "" || len(s.shards) == 1 {
		return s.For(inventory.Customer(customer)).SLAReport(customer)
	}
	reps := make([]slo.CustomerReport, len(s.shards))
	for i, sh := range s.shards {
		reps[i] = sh.Ctrl.SLAReport("")
	}
	return slo.MergeReports(s.Now(), reps)
}

// Conn finds a connection by ID across every shard.
func (s *ShardSet) Conn(id ConnID) *Connection {
	for _, sh := range s.shards {
		if conn := sh.Ctrl.Conn(id); conn != nil {
			return conn
		}
	}
	return nil
}

// Snapshot aggregates per-shard statistics. Counters sum (each shard's
// device pools are its own inventory allocation); DownLinks come from shard
// 0, whose fiber state every shard replicates.
func (s *ShardSet) Snapshot() Stats {
	if len(s.shards) == 1 {
		return s.shards[0].Ctrl.Snapshot()
	}
	var out Stats
	for i, sh := range s.shards {
		st := sh.Ctrl.Snapshot()
		out.Pending += st.Pending
		out.Active += st.Active
		out.Down += st.Down
		out.Restoring += st.Restoring
		out.Released += st.Released
		out.InternalConns += st.InternalConns
		out.ChannelsInUse += st.ChannelsInUse
		out.OTsInUse += st.OTsInUse
		out.OTsTotal += st.OTsTotal
		out.RegensInUse += st.RegensInUse
		out.RegensTotal += st.RegensTotal
		out.Pipes += st.Pipes
		out.SlotsInUse += st.SlotsInUse
		out.SlotsTotal += st.SlotsTotal
		out.Events += st.Events
		if i == 0 {
			out.DownLinks = st.DownLinks
		}
	}
	return out
}

// MaxChannelInUse returns the highest channel any shard has lit (0 when the
// spectrum is empty). Each plant replica lights only its own shard's
// channels, so the plant-wide figure is the max over shards.
func (s *ShardSet) MaxChannelInUse() int {
	top := 0
	for _, sh := range s.shards {
		top = max(top, sh.Ctrl.MaxChannelInUse())
	}
	return top
}

// WriteMetrics renders the set's instruments in Prometheus text format: one
// shard's registry verbatim for a single-shard set (byte-compatible with the
// unsharded controller), the per-shard registries merged under an injected
// shard label otherwise.
func (s *ShardSet) WriteMetrics(w io.Writer) error {
	if len(s.shards) == 1 {
		return s.shards[0].Ctrl.Metrics().WritePrometheus(w)
	}
	regs := make([]*obs.Registry, len(s.shards))
	labels := make([]string, len(s.shards))
	for i, sh := range s.shards {
		regs[i] = sh.Ctrl.Metrics()
		labels[i] = fmt.Sprintf("%d", i)
	}
	return obs.WriteMergedPrometheus(w, "shard", labels, regs)
}

// CutFiber fails a fiber on every shard's plant replica; each shard restores
// its own customers. It fails only if every shard refused (the replicas can
// drift on repair state when auto-repair crews finish at different virtual
// times).
func (s *ShardSet) CutFiber(link topo.LinkID) error {
	return s.eachPlant(func(c *Controller) error { return c.CutFiber(link) })
}

// RepairFiber returns a fiber to service on every shard's plant replica.
func (s *ShardSet) RepairFiber(link topo.LinkID) error {
	return s.eachPlant(func(c *Controller) error { return c.RepairFiber(link) })
}

// eachPlant applies a fiber-state mutation to every shard, succeeding if any
// shard accepted it.
func (s *ShardSet) eachPlant(op func(*Controller) error) error {
	var firstErr error
	okAny := false
	for _, sh := range s.shards {
		if err := op(sh.Ctrl); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			okAny = true
		}
	}
	if okAny {
		return nil
	}
	return firstErr
}

// TakeUnsynced appends to seqs, per shard, the journal sequence number of the
// last commit written since the previous call (0 if none), and returns the
// first commit among them that could not be written. It reads controller
// state: call it under whatever serializes the drive.
func (s *ShardSet) TakeUnsynced(seqs []uint64) ([]uint64, error) {
	var first error
	for _, sh := range s.shards {
		seq, err := sh.Ctrl.TakeUnsynced()
		seqs = append(seqs, seq)
		if first == nil {
			first = err
		}
	}
	return seqs, first
}

// WaitDurable blocks until shard i's journal has fsynced seqs[i], for every
// shard, stopping at the first that fails. It touches only the journals, so
// the caller can — and to let others drive meanwhile, should — have released
// its lock. Nothing seqs covers may be acknowledged unless this returns nil.
func (s *ShardSet) WaitDurable(seqs []uint64) (shard int, err error) {
	for i, sh := range s.shards {
		if seqs[i] == 0 || sh.Store == nil {
			continue
		}
		if err := sh.Store.Sync(seqs[i]); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// SyncFailed counts and logs on its shard the failure WaitDurable returned.
// Unlike WaitDurable it writes controller state: call it under the lock.
func (s *ShardSet) SyncFailed(shard int, err error) {
	s.shards[shard].Ctrl.journalFailed(err)
}

// Sync makes every commit written so far durable before it returns — the
// three steps above in one, for a caller with no lock to release in between
// and no reply to withhold: a failure is counted and logged, as a commit that
// could not be written already was.
func (s *ShardSet) Sync() {
	for _, sh := range s.shards {
		if seq, _ := sh.Ctrl.TakeUnsynced(); seq > 0 {
			if err := sh.Store.Sync(seq); err != nil {
				sh.Ctrl.journalFailed(err)
			}
		}
	}
}

// Close releases every shard's journal.
func (s *ShardSet) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if sh.Store == nil {
			continue
		}
		if err := sh.Store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
