package griphon

import (
	"fmt"
	"io"
	"time"

	"griphon/internal/alarms"
	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/inventory"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// Rate is a connection bandwidth in bits per second.
type Rate = bw.Rate

// The BoD rates the paper discusses. Any rate from 1G upward is accepted;
// these are the common points.
const (
	Rate1G  = bw.Rate1G
	Rate2G5 = bw.Rate2G5
	Rate10G = bw.Rate10G
	Rate40G = bw.Rate40G
	Gbps    = bw.Gbps
	Mbps    = bw.Mbps
)

// ParseRate converts "1G", "2.5G", "10G", "622M" into a Rate.
func ParseRate(s string) (Rate, error) { return bw.Parse(s) }

// Protection selects a connection's survivability scheme (paper Table 1).
type Protection = core.Protection

const (
	// Restore is GRIPhoN's automated dynamic restoration (default).
	Restore = core.Restore
	// OnePlusOne pre-provisions a disjoint hot standby (~50 ms switch,
	// double cost).
	OnePlusOne = core.OnePlusOne
	// Unprotected waits for fiber repair (4–12 h outages).
	Unprotected = core.Unprotected
	// SharedMesh is the OTN layer's sub-second restoration (circuits).
	SharedMesh = core.SharedMesh
)

// Connection is a customer connection's live record. Fields are maintained by
// the controller; treat them as read-only.
type Connection = core.Connection

// ConnID identifies a connection.
type ConnID = core.ConnID

// Event is one audit-log entry (what the customer GUI shows).
type Event = core.Event

// Stats is a network-wide resource snapshot.
type Stats = core.Stats

// Maintenance reports what a planned-work window did.
type Maintenance = core.Maintenance

// AlarmGroup is one correlated alarm group from the customer alarm stream:
// a synthesized root event (e.g. "fiber cut suspected on I-IV") plus the raw
// per-circuit children it explains.
type AlarmGroup = alarms.Group

// SLAReport is a customer's availability report: per-connection up/down
// accounting with every outage attributed to a root cause.
type SLAReport = slo.CustomerReport

// FlightDump is a flight-recorder snapshot: the bounded tails of recent
// events, commit records, alarm groups and spans, plus whatever findings
// tripped the dump.
type FlightDump = slo.Dump

// Finding is one invariant violation reported by AuditInvariants.
type Finding = core.Finding

// Option configures a Network.
type Option func(*config)

type config = core.ShardSetConfig

// WithSeed sets the simulation seed (default 1). Runs with equal seeds are
// bit-identical.
func WithSeed(seed int64) Option { return func(c *config) { c.Seed = seed } }

// WithOTsPerNode sets the transponder pool size at every PoP (default 8).
func WithOTsPerNode(n int) Option {
	return func(c *config) { c.Core.Optics.OTsPerNode = n }
}

// WithRegensPerNode sets the regenerator pool size at every PoP (default 2).
func WithRegensPerNode(n int) Option {
	return func(c *config) { c.Core.Optics.RegensPerNode = n }
}

// WithReachForRate overrides the optical reach for one line rate (e.g. 40G
// signals regenerate sooner than 10G ones).
func WithReachForRate(rate Rate, km float64) Option {
	return func(c *config) {
		if c.Core.Optics.ReachByRate == nil {
			c.Core.Optics.ReachByRate = map[Rate]float64{}
		}
		c.Core.Optics.ReachByRate[rate] = km
	}
}

// WithAutoRepair dispatches a repair crew automatically after every fiber
// cut (4–12 h, drawn from the latency model).
func WithAutoRepair() Option {
	return func(c *config) { c.Core.AutoRepair = true }
}

// WithTracing records a virtual-time span for every controller operation, EMS
// command and RWA search. Export the trace with TraceTo / TraceJSONLTo. Off by
// default: the disabled path costs zero allocations on the hot paths.
func WithTracing() Option {
	return func(c *config) { c.Tracing = true }
}

// WithFastSetup turns on the low-latency setup machinery: the dependency-graph
// EMS choreography (independent steps run concurrently instead of in the
// paper's serial ladder), a path cache for repeat customers (invalidated on
// any topology or link-state change), and speculative pre-arming — a warm
// pool of two pre-tuned transponders per PoP and two pre-opened EMS sessions,
// re-armed in the background after each claim. Roughly halves wavelength
// setup latency on the testbed; see DESIGN.md §12.
func WithFastSetup() Option {
	return func(c *config) {
		c.Core.Choreography = core.ChoreoGraph
		c.Core.PathCache = true
		c.Core.PreArm = core.PreArm{WarmOTsPerNode: 2, WarmSessions: 2}
	}
}

// WithFlightRecorder keeps bounded rings of the last capacity events, commit
// records and alarm groups, dumpable as JSON via DumpFlight when an invariant
// audit or a soak assertion trips. Off by default (zero retained state).
func WithFlightRecorder(capacity int) Option {
	return func(c *config) { c.Core.FlightRecorder = capacity }
}

// WithStateDir makes the controller's state durable in dir: every committed
// operation is appended to a checksummed write-ahead log with periodic full
// snapshots. If dir already holds state from a previous run, New recovers it —
// connections, pipes, bookings, quotas and fiber status come back exactly as
// last committed, with booking timers re-armed. Call Close when done.
func WithStateDir(dir string) Option {
	return func(c *config) { c.StateDir = dir }
}

// WithFsync makes every mutating call wait, before it returns, for a file
// sync covering the commits it journaled (only meaningful with WithStateDir).
// Durability against OS crashes at one fsync per call and shard it touched.
func WithFsync() Option {
	return func(c *config) { c.Fsync = true }
}

// WithShards partitions the control plane into n shards, each a full
// controller (own event loop, own journal under <stateDir>/shard-<i>, own
// plant replica) serving the customers that hash to it. Spectrum on shared
// fibers is brokered by a cross-shard coordinator; everything else is
// shard-local. n <= 1 is the serial single-shard mode — the default,
// byte-compatible with unsharded deployments — and runs the same code path.
// See DESIGN.md §15.
func WithShards(n int) Option {
	return func(c *config) { c.Shards = n }
}

// Network is a GRIPhoN deployment: the photonic plant, the OTN overlay, the
// vendor EMSes and the GRIPhoN controller, all running on one virtual clock.
// The control plane is a set of N controllers, one per shard of customers,
// coordinated over the shared plant (WithShards, DESIGN.md §15); the default
// is N = 1, the same code, and every method here answers for the whole set.
// What one shard formats differently (connection IDs, state directory, shard
// label and field in metrics and traces) is listed at core.ShardSet. Network
// is not safe for concurrent use; the simulation is single-threaded by design
// (determinism).
type Network struct {
	set *core.ShardSet
	g   *topo.Graph
	// hoisted: the caller waits for the disk itself (see HoistSync).
	hoisted bool
}

// New builds a network over the given topology.
func New(t *Topology, opts ...Option) (*Network, error) {
	if t == nil {
		return nil, fmt.Errorf("griphon: nil topology")
	}
	cfg := config{Seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	// Grid size and reach are the experiments'; so is any device pool no
	// option sized.
	oc := &cfg.Core.Optics
	oc.Channels, oc.ReachKM = 80, 2500
	if oc.OTsPerNode == 0 {
		oc.OTsPerNode = 8
	}
	if oc.RegensPerNode == 0 {
		oc.RegensPerNode = 2
	}
	set, err := core.NewShardSet(t.g, cfg)
	if err != nil {
		return nil, err
	}
	return &Network{set: set, g: t.g}, nil
}

// settle ends every mutating method: the controllers write their commits to
// the journal without waiting for the disk, and this is the wait, so that what
// the method did is durable when it returns. A commit that could not be made
// durable is counted (griphon_journal_errors_total) and logged as a
// journal-error event; the network keeps running on the in-memory database.
func (n *Network) settle() {
	if !n.hoisted {
		n.set.Sync()
	}
}

// HoistSync hands the wait for the disk to the caller, for good. Mutating
// methods then return once their commits are applied and written, and before
// acknowledging any of them the caller must collect what they wrote with
// ShardSet().TakeUnsynced and wait on ShardSet().WaitDurable. api.NewServer
// calls it, so that the fsync happens after the server's lock is released and
// once per request. It is not configuration: no Option, flag or environment
// variable reaches it, and a library caller has no lock to release first.
func (n *Network) HoistSync() { n.hoisted = true }

// Close releases every shard's journal (a no-op without WithStateDir). The
// network is unusable for durable operations afterwards.
func (n *Network) Close() error { return n.set.Close() }

// Controller returns shard 0's controller.
//
// Deprecated: nothing that answers for the network may read one shard. It
// survives because bench/client.go calls Controller().Graph() and only a
// benchmark PR may edit bench/; that PR moves the call to Graph and deletes
// this. Name a shard on purpose with ShardSet().Shard(i).
func (n *Network) Controller() *core.Controller { return n.set.Shard(0).Ctrl }

// Graph returns the topology the network was built over, read-only.
func (n *Network) Graph() *topo.Graph { return n.g }

// ShardSet exposes the sharded control plane itself: per-shard controllers
// (Len, Shard), the cross-shard coordinator, and the journal hand-over the API
// server waits on (TakeUnsynced, WaitDurable).
func (n *Network) ShardSet() *core.ShardSet { return n.set }

// ShardFor returns the index of the shard owning a customer's state.
func (n *Network) ShardFor(customer string) int {
	return n.set.ShardFor(inventory.Customer(customer))
}

// forCust returns the controller owning a customer's state.
func (n *Network) forCust(customer string) *core.Controller {
	return n.set.For(inventory.Customer(customer))
}

// Now returns the current virtual time as an offset from the start (the
// latest shard clock when sharded).
func (n *Network) Now() time.Duration { return time.Duration(n.set.Now()) }

// Advance runs the simulation for d of virtual time, in lockstep across
// shards (deterministic).
func (n *Network) Advance(d time.Duration) {
	n.set.Advance(d)
	n.settle()
}

// Drain runs the simulation until no events remain on any shard.
func (n *Network) Drain() {
	n.set.Drain()
	n.settle()
}

// AuditInvariants sweeps every shard's resource books plus the cross-shard
// invariants (spectrum claims, tenant placement). Empty means everything
// balances, and holds between any two events.
func (n *Network) AuditInvariants() []Finding { return n.set.AuditInvariants() }

// await drives the clock until the job completes.
func (n *Network) await(job *sim.Job) error {
	if err := n.set.Await(job); err != nil {
		if job.Done() {
			return err
		}
		return fmt.Errorf("griphon: simulation stalled waiting for job")
	}
	return nil
}

// Connect provisions a connection between two sites at the given rate and
// runs the simulation until it is active (or its setup fails). Rates above a
// single wavelength (e.g. 12G) are provisioned as composite services; the
// returned connection is then the first component — ConnectAll returns them
// all.
func (n *Network) Connect(customer, from, to string, rate Rate, protect ...Protection) (*Connection, error) {
	conns, err := n.ConnectAll(customer, from, to, rate, protect...)
	if err != nil {
		return nil, err
	}
	return conns[0], nil
}

// ConnectAll is Connect returning every component connection the request was
// provisioned as, in the order they were created: one for a rate a single
// circuit or wavelength carries, several for a composite rate (12G = one 10G
// wavelength + two 1G circuits).
func (n *Network) ConnectAll(customer, from, to string, rate Rate, protect ...Protection) ([]*Connection, error) {
	defer n.settle()
	req := core.Request{
		Customer: inventory.Customer(customer),
		From:     topo.SiteID(from),
		To:       topo.SiteID(to),
		Rate:     rate,
	}
	if len(protect) > 0 {
		req.Protect = protect[0]
	}
	conns, job, err := n.forCust(customer).ConnectComposite(req)
	if err != nil {
		return nil, err
	}
	if err := n.await(job); err != nil {
		return nil, err
	}
	return conns, nil
}

// ConnectAsync submits the request and returns without advancing the clock;
// the connection is Pending until the caller advances time past its setup.
func (n *Network) ConnectAsync(customer, from, to string, rate Rate, protect ...Protection) (*Connection, error) {
	defer n.settle()
	req := core.Request{
		Customer: inventory.Customer(customer),
		From:     topo.SiteID(from),
		To:       topo.SiteID(to),
		Rate:     rate,
	}
	if len(protect) > 0 {
		req.Protect = protect[0]
	}
	conn, _, err := n.forCust(customer).Connect(req)
	return conn, err
}

// Disconnect tears a connection down and runs until its resources are
// released.
func (n *Network) Disconnect(customer string, id ConnID) error {
	defer n.settle()
	job, err := n.forCust(customer).Disconnect(inventory.Customer(customer), id)
	if err != nil {
		return err
	}
	return n.await(job)
}

// Connections lists a customer's connections in ID order (the GUI's
// connection view). The slice is a read-only view of the controller's index
// as of this call.
func (n *Network) Connections(customer string) []*Connection {
	return n.forCust(customer).CustomerConnections(inventory.Customer(customer))
}

// Conn returns one connection by ID, or nil (searched across shards).
func (n *Network) Conn(id ConnID) *Connection { return n.set.Conn(id) }

// CutFiber fails a fiber link. Shard 0 decides the cut and applies it to
// every shard's plant replica at one instant; with WithAutoRepair it sends
// the one repair crew. Detection, localization and restoration proceed as
// the simulation advances.
func (n *Network) CutFiber(link string) error {
	defer n.settle()
	return n.set.CutFiber(topo.LinkID(link))
}

// RepairFiber returns a failed link to service on every shard at one
// instant, and calls off a repair crew still on its way.
func (n *Network) RepairFiber(link string) error {
	defer n.settle()
	return n.set.RepairFiber(topo.LinkID(link))
}

// BridgeAndRoll moves an active wavelength connection to a disjoint path
// almost hitlessly and runs until the roll completes.
func (n *Network) BridgeAndRoll(customer string, id ConnID) error {
	defer n.settle()
	job, err := n.forCust(customer).BridgeAndRoll(inventory.Customer(customer), id, nil)
	if err != nil {
		return err
	}
	return n.await(job)
}

// ScheduleMaintenance plans work on a link at a virtual time offset `in` from
// now, lasting `window`. It returns immediately; advance the clock to let it
// happen. The Maintenance record fills in as it proceeds, from every shard.
func (n *Network) ScheduleMaintenance(link string, in, window time.Duration) (*Maintenance, error) {
	defer n.settle()
	return n.set.ScheduleMaintenance(topo.LinkID(link), n.set.Now().Add(in), window)
}

// Regroom moves a connection onto a better path if one exists (reports
// whether it moved) and runs until done.
func (n *Network) Regroom(customer string, id ConnID) (bool, error) {
	defer n.settle()
	moved, job, err := n.forCust(customer).Regroom(inventory.Customer(customer), id)
	if err != nil {
		return false, err
	}
	return moved, n.await(job)
}

// Booking is a calendar reservation for a future bandwidth window.
type Booking = core.Booking

// ScheduleConnect books a connection window starting `in` from now and
// lasting `hold`. Provisioning happens when the window opens; advance the
// clock to let it play out.
func (n *Network) ScheduleConnect(customer, from, to string, rate Rate, in, hold time.Duration) (*Booking, error) {
	defer n.settle()
	c := n.forCust(customer)
	return c.ScheduleConnect(core.Request{
		Customer: inventory.Customer(customer),
		From:     topo.SiteID(from),
		To:       topo.SiteID(to),
		Rate:     rate,
	}, c.NowTime().Add(in), hold)
}

// Booking returns one of a customer's bookings by ID. IDs belonging to a
// different customer read as unknown.
func (n *Network) Booking(customer string, id int) (*Booking, error) {
	return n.forCust(customer).Booking(inventory.Customer(customer), id)
}

// Bookings lists a customer's bookings in ID order.
func (n *Network) Bookings(customer string) []*Booking {
	return n.forCust(customer).Bookings(inventory.Customer(customer))
}

// CancelBooking ends a customer's booking early — a pending window is
// descheduled, an open one has its components released — and runs until the
// release completes.
func (n *Network) CancelBooking(customer string, id int) error {
	defer n.settle()
	job, err := n.forCust(customer).CancelBooking(inventory.Customer(customer), id)
	if err != nil {
		return err
	}
	return n.await(job)
}

// AdjustRate resizes an active connection in place (OTN circuits: hitless
// slot changes; wavelengths: a brief re-tune) and runs until the adjustment
// completes. Moves across the OTN/DWDM boundary are rejected.
func (n *Network) AdjustRate(customer string, id ConnID, rate Rate) error {
	defer n.settle()
	job, err := n.forCust(customer).AdjustRate(inventory.Customer(customer), id, rate)
	if err != nil {
		return err
	}
	return n.await(job)
}

// ReclaimIdlePipes retires OTN pipes that carry no circuits, returning their
// wavelengths and transponders to the shared pool. It reports how many pipes
// were reclaimed and runs until the teardowns complete.
func (n *Network) ReclaimIdlePipes() (int, error) {
	defer n.settle()
	total := 0
	for _, sh := range n.set.Shards() {
		job, count := sh.Ctrl.ReclaimIdlePipes()
		total += count
		if err := n.await(job); err != nil {
			return total, err
		}
	}
	return total, nil
}

// BillGbHours returns a customer's cumulative delivered gigabit-hours — the
// BoD billing unit (outages excluded).
func (n *Network) BillGbHours(customer string) float64 {
	return n.forCust(customer).BillGbHours(inventory.Customer(customer))
}

// SetQuota bounds a customer's simultaneous connections and total bandwidth
// (zero = unlimited). The quota lands on — and is journaled by — exactly the
// shard that owns the customer, so it is admission-safe while setups are in
// flight on other shards.
func (n *Network) SetQuota(customer string, maxConns int, maxBandwidth Rate) {
	defer n.settle()
	n.set.SetQuota(inventory.Customer(customer), inventory.Quota{
		MaxConnections: maxConns,
		MaxBandwidth:   maxBandwidth,
	})
}

// Stats returns a resource snapshot (summed across shards).
func (n *Network) Stats() Stats { return n.set.Snapshot() }

// Metrics returns the registry of process-level instruments (always
// non-nil): what counts for the whole network rather than one shard, such as
// the API server's counters. MetricsTo renders it beside every shard's own.
func (n *Network) Metrics() *obs.Registry { return n.set.Metrics() }

// Tracing reports whether the network records spans (WithTracing).
func (n *Network) Tracing() bool { return n.set.Tracers() != nil }

// TraceTo writes every shard's recorded spans in Chrome trace_event JSON —
// loadable in chrome://tracing or ui.perfetto.dev, with one track per EMS so
// a setup renders as the paper's step ladder, and when sharded one process
// per shard. Fails unless WithTracing was set.
func (n *Network) TraceTo(w io.Writer) error { return n.trace(w, obs.WriteChromeTrace) }

// TraceJSONLTo writes every shard's recorded spans as JSON Lines (one span
// per line, tagged with its shard when sharded).
func (n *Network) TraceJSONLTo(w io.Writer) error { return n.trace(w, obs.WriteJSONL) }

func (n *Network) trace(w io.Writer, export func(io.Writer, ...*obs.Tracer) error) error {
	if !n.Tracing() {
		return fmt.Errorf("griphon: tracing is off; construct the network with WithTracing")
	}
	return export(w, n.set.Tracers()...)
}

// MetricsTo writes every instrument in Prometheus text format: the
// process-level registry, and every shard's under a shard label when sharded.
func (n *Network) MetricsTo(w io.Writer) error {
	return n.set.WriteMetrics(w)
}

// Events returns the audit log (merged across shards).
func (n *Network) Events() []Event { return n.set.Events() }

// EventsFor returns the audit log entries for one connection.
func (n *Network) EventsFor(id ConnID) []Event { return n.set.EventsFor(id) }

// EventsSince returns audit-log entries after the cursor plus the next cursor
// (len of the log); resuming from it yields no gaps or repeats.
func (n *Network) EventsSince(cursor int) ([]Event, int) { return n.set.EventsSince(cursor) }

// Alarms returns correlated alarm groups after the seq cursor, projected onto
// one customer's view ("" = operator sees everything), plus the cursor to
// resume from. Customer cursors live in the owning shard's stream; the
// operator cursor in the merged stream.
func (n *Network) Alarms(since uint64, customer string) ([]AlarmGroup, uint64) {
	return n.set.AlarmsSince(since, customer)
}

// SLA assembles a customer's availability report as of the current virtual
// time. An empty customer is the operator view (every non-internal
// connection on every shard).
func (n *Network) SLA(customer string) SLAReport { return n.set.SLAReport(customer) }

// DumpFlight snapshots every shard's flight recorder, folding findings into
// each dump: one per shard, in shard order (nil without WithFlightRecorder).
func (n *Network) DumpFlight(reason string, findings []string) []FlightDump {
	return n.set.DumpFlight(reason, findings)
}

// DefragmentSpectrum retunes active wavelengths down to the lowest free
// channels on their paths (brief per-connection hits), restoring first-fit
// packing after churn. It reports how many connections moved and runs until
// the retunes complete.
func (n *Network) DefragmentSpectrum() (int, error) {
	defer n.settle()
	total := 0
	for _, sh := range n.set.Shards() {
		job, moved := sh.Ctrl.DefragmentSpectrum()
		total += moved
		if err := n.await(job); err != nil {
			return total, err
		}
	}
	return total, nil
}
