package core

// ShardSet partitions the control plane by customer. Each shard is a full
// Controller — its own event loop (sim.Kernel), its own journal, its own
// replica of the photonic plant and device pools — serving the customers that
// hash to it. The only state shared between shards is the Coordinator
// (spectrum on shared fibers) and the merged operator event/alarm logs, all
// mutex-guarded and never blocking on the simulation. There is one code path
// for every shard count: a one-shard set routes, merges, reports and renders
// through the same code with N = 1, and differs in formatting only (ShardSet).
//
// One drive mode, lockstep (Step/Await/Advance/Drain): the globally earliest
// pending event executes next, ties broken by shard index, so a set is as
// deterministic as one kernel. Shards partition state and journals (recovery,
// isolation, audit scope), not CPU.
//
// Shard ownership rules: connections, bookings, quotas, SLA ledgers, alarm
// streams and billing are wholly owned by the customer's shard. Fiber state
// is replicated and owned by shard 0: its controller decides every cut,
// repair and maintenance window, sends the one repair crew, and applies each
// event to every shard's plant replica at one instant, so each shard restores
// its own customers. The other shards only follow. Spectrum is claimed
// through the Coordinator before any shard-local reservation sticks.

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
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
	// Core is the per-shard controller template. Tracer and Shard are
	// managed per shard; everything else applies verbatim. Journal passes
	// through to a one-shard set without StateDir, whose caller owns (and
	// closes) the store; NewShardSet refuses it anywhere else, since shards
	// cannot share a store and StateDir opens their own.
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

// ShardSet is a sharded control plane: N shards plus what they share. See the
// package comment on drive modes and ownership rules.
//
// Every method runs the same code for every N. A one-shard set differs in
// what it writes, never in how it works, and in exactly four ways, which keep
// it byte-compatible with deployments that predate sharding:
//
//  1. connection IDs are plain C%04d, not S<shard>.C%04d (newConnID);
//  2. its journal lives in StateDir itself, not StateDir/shard-0;
//  3. its metrics carry no shard label (WriteMetrics);
//  4. its JSONL spans carry no shard field and its Chrome trace names one
//     unnumbered process (obs.WriteJSONL, obs.WriteChromeTrace).
//
// It has no Coordinator either: one shard has nothing to broker against.
type ShardSet struct {
	shards  []*Shard
	coord   *Coordinator  // nil for a single shard
	tracers []*obs.Tracer // every shard's, in index order; nil without Tracing
	// reg holds the instruments that belong to the process rather than to a
	// shard (the API server's counters), rendered without a shard label.
	reg *obs.Registry

	// mu guards the merged logs, which observers append to from whichever
	// shard produced them. Lockstep drive appends from one goroutine at a
	// time; the lock is what lets a reader on another goroutine see them.
	mu sync.Mutex
	// runs is the merged audit log's order, nEvents its length. The entries
	// stay in their shards' own logs; read them between drives, like those.
	runs     []eventRun
	nEvents  int
	alarmLog *alarms.Log
}

// eventRun is a maximal stretch of consecutive merged-log entries logged by
// one shard: merged entry start+j is entry first+j of that shard's log. A
// run ends where the next one starts, the last at nEvents. A one-shard set
// holds one run however long its log; N shards in lockstep hold one per burst.
type eventRun struct {
	shard, first uint32
	start        int
}

// NewShardSet builds (or, with StateDir holding prior state, rehydrates)
// every shard. What shards share is set up first, in index order: topology
// clones, kernels, tracers. Then the shards are built concurrently (build),
// and only then are their event and alarm streams wired into the merged logs,
// in index order, so the merged order is what a one-by-one build made.
func NewShardSet(g *topo.Graph, cfg ShardSetConfig) (*ShardSet, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if cfg.Core.Journal != nil && (n > 1 || cfg.StateDir != "") {
		return nil, fmt.Errorf("core: Core.Journal needs a one-shard set without StateDir (have %d shards, StateDir %q)", n, cfg.StateDir)
	}
	s := &ShardSet{reg: obs.NewRegistry(), alarmLog: alarms.NewLog(alarmLogSize * n)}
	if n > 1 {
		ch := cfg.Core.Optics.Channels
		if ch <= 0 {
			ch = optics.DefaultConfig().Channels
		}
		s.coord = NewCoordinator(ch)
	}
	builds := make([]func() error, n)
	for i := 0; i < n; i++ {
		k := sim.NewKernel(cfg.Seed + int64(i))
		gi := g
		if i > 0 {
			// Each shard clones the topology: Graph.Index lazily builds a
			// compiled cache, so shards share no mutable graph state. Every
			// clone is made before any shard is built.
			gi = g.Clone()
		}
		ccfg := cfg.Core
		ccfg.Shard = ShardInfo{Index: i, Count: n, Coordinator: s.coord}
		if cfg.Tracing {
			ccfg.Tracer = obs.NewTracer(k)
			s.tracers = append(s.tracers, ccfg.Tracer)
		}
		dir := cfg.StateDir
		if dir != "" && n > 1 {
			dir = filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d", i))
		}
		sh := &Shard{Kernel: k}
		s.shards = append(s.shards, sh)
		builds[i] = func() error { return sh.build(gi, ccfg, dir, cfg.Fsync) }
	}
	if err := s.build(builds); err != nil {
		return nil, err
	}
	// Shard 0 decides every fiber event, and every shard's plant replicates
	// its: recovery must find them agreeing.
	owner := s.shards[0].Ctrl
	owner.replicas = nil
	for i, sh := range s.shards {
		s.observe(uint32(i), sh.Ctrl)
		owner.replicas = append(owner.replicas, sh.Ctrl)
	}
	if drift := s.plantDrift(); len(drift) > 0 {
		s.Close() //lint:allow errcheck recovery already failed
		return nil, fmt.Errorf("core: recovered plant replicas disagree: %s", drift[0].Detail)
	}
	// Shards rebuilt from journals resume at their own last commits: run what
	// they left due by the latest, so the set has one clock.
	s.Advance(0)
	return s, nil
}

// build runs every shard's build on a goroutine of its own and waits for them
// all. The shards share nothing but the Coordinator, which takes its lock for
// the claims they re-register. On any failure it closes every journal that
// was opened and returns the first error in shard order.
func (s *ShardSet) build(builds []func() error) error {
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	for i, build := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = build()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.Close() //lint:allow errcheck construction already failed
			return err
		}
	}
	return nil
}

// build opens the shard's journal in dir, unless dir is empty, and rebuilds
// the shard from the state there or builds it fresh.
func (sh *Shard) build(g *topo.Graph, cfg Config, dir string, fsync bool) error {
	if dir != "" {
		var err error
		if sh.Store, err = journal.Open(dir, journal.Options{Fsync: fsync}); err != nil {
			return err
		}
		cfg.Journal = sh.Store
	}
	var err error
	if sh.Store != nil && sh.Store.HasState() {
		sh.Ctrl, err = Rehydrate(sh.Kernel, g, cfg)
	} else {
		sh.Ctrl, err = New(sh.Kernel, g, cfg)
	}
	return err
}

// observe wires a shard's event and alarm streams into the merged logs, after
// seeding the merged order with what the shard logged while it was rehydrated.
func (s *ShardSet) observe(shard uint32, ctrl *Controller) {
	onEvent := func(index int) {
		s.mu.Lock()
		if n := len(s.runs); n == 0 || s.runs[n-1].shard != shard {
			s.runs = append(s.runs, eventRun{shard: shard, first: uint32(index), start: s.nEvents})
		}
		s.nEvents++
		s.mu.Unlock()
	}
	for i := 0; i < ctrl.events.len(); i++ {
		onEvent(i)
	}
	ctrl.onEvent = onEvent
	ctrl.onAlarmGroup = func(g alarms.Group) {
		s.mu.Lock()
		s.alarmLog.Append(g)
		s.mu.Unlock()
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

// ShardFor returns the index of the shard owning a customer: the customer's
// FNV-1a hash (hash/fnv's New32a, inlined so that routing allocates nothing)
// modulo the shard count. Placement is persisted, so it may never change.
func (s *ShardSet) ShardFor(cust inventory.Customer) int {
	h := uint32(2166136261)
	for i := 0; i < len(cust); i++ {
		h = (h ^ uint32(cust[i])) * 16777619
	}
	return int(h % uint32(len(s.shards)))
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

// Step executes the globally earliest pending event, after bringing every
// shard's clock to its instant: the set keeps one clock, so a fiber event
// shard 0 decides happens at one instant on every shard. It reports false
// when every shard is drained.
func (s *ShardSet) Step() bool {
	i, at, ok := s.earliest()
	if !ok {
		return false
	}
	s.align(at)
	return s.shards[i].Kernel.Step()
}

// align brings every shard's clock to t, before which nothing is pending.
func (s *ShardSet) align(t sim.Time) {
	for _, sh := range s.shards {
		sh.Kernel.Align(t)
	}
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
	for _, at, ok := s.earliest(); ok && !at.After(target); _, at, ok = s.earliest() {
		s.Step()
	}
	s.align(target)
}

// Drain runs the set in lockstep until no shard has pending events.
func (s *ShardSet) Drain() {
	for s.Step() {
	}
}

// Events returns the operator's merged audit log in arrival order across
// shards, which lockstep drive makes deterministic.
func (s *ShardSet) Events() []Event {
	evs, _ := s.EventsSince(0)
	return evs
}

// EventsFor returns the audit entries mentioning a connection. They are all
// in the log of the shard that owns it, so like Conn this asks each shard.
func (s *ShardSet) EventsFor(id ConnID) []Event {
	for _, sh := range s.shards {
		if evs := sh.Ctrl.EventsFor(id); len(evs) > 0 {
			return evs
		}
	}
	return nil
}

// EventsSince returns merged audit entries from index cursor on, plus the
// cursor to resume from.
func (s *ShardSet) EventsSince(cursor int) ([]Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cursor = max(0, min(cursor, s.nEvents))
	if cursor == s.nEvents {
		return nil, s.nEvents
	}
	out := make([]Event, 0, s.nEvents-cursor)
	// The run holding cursor is the last one starting at or before it.
	ri := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].start > cursor }) - 1
	for ; ri < len(s.runs); ri++ {
		run, end := s.runs[ri], s.nEvents
		if ri+1 < len(s.runs) {
			end = s.runs[ri+1].start
		}
		log := &s.shards[run.shard].Ctrl.events
		for i := max(cursor, run.start); i < end; i++ {
			out = append(out, log.at(int(run.first)+i-run.start))
		}
	}
	return out, s.nEvents
}

// AlarmsSince returns alarm groups after the seq cursor. A customer query
// routes to the owning shard (cursors live in that shard's seq space); the
// operator view ("") reads the merged log.
func (s *ShardSet) AlarmsSince(seq uint64, customer string) ([]alarms.Group, uint64) {
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
	if customer != "" {
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
// 0, which decides the fiber state every shard replicates.
func (s *ShardSet) Snapshot() Stats {
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

// Metrics returns the registry of process-level instruments (always non-nil):
// register there what counts for the whole set, not for one shard.
func (s *ShardSet) Metrics() *obs.Registry { return s.reg }

// WriteMetrics renders the set's instruments in Prometheus text format: the
// process-level registry unlabelled, merged by name with the per-shard
// registries, each under its shard label unless it is the only one.
func (s *ShardSet) WriteMetrics(w io.Writer) error {
	regs, labels := []*obs.Registry{s.reg}, []string{""}
	for i, sh := range s.shards {
		label := ""
		if len(s.shards) > 1 {
			label = strconv.Itoa(i)
		}
		regs, labels = append(regs, sh.Ctrl.Metrics()), append(labels, label)
	}
	return obs.WriteMergedPrometheus(w, "shard", labels, regs)
}

// Tracers returns every shard's span tracer in index order, nil unless the
// set was built with Tracing.
func (s *ShardSet) Tracers() []*obs.Tracer { return s.tracers }

// DumpFlight snapshots every shard's flight recorder, folding the findings
// into each dump: dump i is shard i's; nil without Config.FlightRecorder.
func (s *ShardSet) DumpFlight(reason string, findings []string) []slo.Dump {
	var dumps []slo.Dump
	for _, sh := range s.shards {
		if d, ok := sh.Ctrl.DumpFlight(reason, findings); ok {
			dumps = append(dumps, d)
		}
	}
	return dumps
}

// CutFiber fails a fiber on every shard's plant replica at one instant; each
// shard restores its own customers, and shard 0 sends the one repair crew.
func (s *ShardSet) CutFiber(link topo.LinkID) error { return s.shards[0].Ctrl.CutFiber(link) }

// RepairFiber returns a fiber to service on every shard's plant replica at
// one instant.
func (s *ShardSet) RepairFiber(link topo.LinkID) error { return s.shards[0].Ctrl.RepairFiber(link) }

// ScheduleMaintenance plans work on a link, which is plant state: every
// shard opens the window at one instant of the set's clock and rolls its own
// customers off the link into the one record returned, and the link is cut
// once, when the last shard's moves are done.
func (s *ShardSet) ScheduleMaintenance(link topo.LinkID, at sim.Time, window sim.Duration) (*Maintenance, error) {
	m, _, err := s.shards[0].Ctrl.ScheduleMaintenance(link, at, window)
	return m, err
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
