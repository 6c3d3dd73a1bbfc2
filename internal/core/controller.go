package core

import (
	"fmt"
	"slices"
	"time"

	"griphon/internal/alarms"
	"griphon/internal/bw"
	"griphon/internal/ems"
	"griphon/internal/faults"
	"griphon/internal/fxc"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/obs"
	"griphon/internal/optics"
	"griphon/internal/otn"
	"griphon/internal/roadm"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// Config tunes a controller. Zero fields take defaults.
type Config struct {
	// Optics sizes the photonic plant (DefaultConfig if zero).
	Optics optics.Config
	// Latencies is the EMS latency table (ems.Default if zero).
	Latencies ems.Latencies
	// AutoRepair dispatches a repair crew automatically on every fiber
	// cut (crew time drawn from Latencies.FiberRepair).
	AutoRepair bool
	// FXCClientPorts and FXCLinePorts size each PoP's fiber
	// cross-connect (defaults 16/16; groom ports always 16).
	FXCClientPorts int
	FXCLinePorts   int
	// AddDropPorts sizes each ROADM's colorless/directionless add-drop
	// bank. Default: one port per transponder plus two per regenerator,
	// so the transponder pool is the binding constraint.
	AddDropPorts int
	// Faults, when non-nil, enables the probabilistic EMS fault model
	// (internal/faults) on every EMS: transient/persistent failures,
	// latency inflation and per-EMS brownout windows, all driven by the
	// kernel's seeded random source.
	Faults *faults.Profile
	// Choreography selects how lightpath EMS work is ordered: ChoreoSerial
	// (the default) reproduces the paper's fully serialized steps and its
	// 60–70 s setup times; ChoreoGraph keeps only real happens-before
	// constraints, cutting setup to the critical path.
	Choreography Choreography
	// PathCache caches computed routes by (src, dst, rate, protection),
	// flushed on every link-state or topology change; a hit skips the
	// K-shortest search and pays the reduced cached controller overhead.
	PathCache bool
	// PreArm sizes the speculative warm pools — pre-opened EMS sessions and
	// pre-tuned spare transponders per PoP — claimed at setup time and
	// refilled in the background. The zero value disables pre-arming.
	PreArm PreArm
	// DegradeToOTN lets a 10G full-wavelength request degrade to a groomed
	// OTN sub-wavelength circuit when the DWDM layer cannot deliver it —
	// no route or wavelength at admission, or persistent EMS failures on
	// every candidate path — instead of hard-blocking.
	DegradeToOTN bool
	// Tracer records virtual-time spans around every controller operation
	// and EMS command. Nil (the default) disables tracing at zero cost.
	Tracer *obs.Tracer
	// Journal, when non-nil, makes every committed state change durable:
	// one WAL record per commit point plus periodic full snapshots. Use
	// Rehydrate to rebuild a controller from a journal's contents.
	Journal *journal.Store
	// SnapshotEvery sets the snapshot cadence in WAL appends (default 256;
	// negative disables snapshots). Ignored without Journal.
	SnapshotEvery int
	// FlightRecorder, when positive, keeps bounded rings of that many recent
	// events, journal commit records and alarm groups, dumpable to JSON when
	// an invariant audit or the chaos soak trips (Controller.DumpFlight).
	// Zero disables it.
	FlightRecorder int
	// Shard identifies this controller's slice of a sharded control plane
	// (see ShardSet). The zero value is the unsharded default: no
	// coordinator, plain connection IDs, identical behavior to every
	// release before sharding existed.
	Shard ShardInfo
}

// ShardInfo places a controller inside a ShardSet. Count <= 1 means
// unsharded.
type ShardInfo struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the total number of shards.
	Count int
	// Coordinator brokers cross-shard spectrum; nil when unsharded.
	Coordinator *Coordinator
}

const (
	// correlationWindow batches the alarms of one failure event.
	correlationWindow = time.Second
	// alarmLogSize bounds the correlated alarm-group log backing the
	// customer alarm stream.
	alarmLogSize = 512
)

// sharded reports whether this controller is one shard of several.
func (s ShardInfo) sharded() bool { return s.Count > 1 }

// Controller is the GRIPhoN controller: the only component that talks to the
// network elements, always through their EMSes, and the keeper of the
// resource database.
type Controller struct {
	k      *sim.Kernel
	g      *topo.Graph
	plant  *optics.Plant
	fabric *otn.Fabric
	roadms *roadm.Layer
	fxcs   map[topo.NodeID]*fxc.Switch
	lat    ems.Latencies
	rwaOpt rwa.Options
	ledger *inventory.Ledger
	// releaseErrs records the ledger releases that failed, for the audit
	// sweep: a release must never fail, and one that does is a bug upstream.
	releaseErrs []string

	roadmEMS *ems.Manager
	otnEMS   *ems.Manager
	fxcEMS   map[topo.NodeID]*ems.Manager

	conns      connIndex
	nextConn   int
	lpSeq      int
	accessUsed map[topo.SiteID]bw.Rate

	bookings    map[int]*Booking
	nextBooking int

	jrnl          *journal.Store
	snapshotEvery int
	// nextSnapshot is the journal's AppendsSinceSnapshot at which
	// journalCommit next snapshots: snapshotEvery after the last attempt.
	nextSnapshot int
	// encBuf is the record encoder's buffer, reused by every commit and
	// snapshot: the journal copies what it is handed into its frame.
	encBuf []byte
	// commitBuf is the record journalCommit fills, its slices reused by
	// every commit.
	commitBuf commitRec
	// What journalCommit has left for TakeUnsynced: the last sequence number
	// written and not yet handed to a Sync, and the first commit that failed.
	unsynced  uint64
	unwritten error

	correlator *alarms.Correlator
	autoRepair bool
	// crews holds the pending repair crew of each link this controller cut.
	crews map[topo.LinkID]*sim.Timer
	// replicas are the plants a fiber event on this controller reaches: every
	// shard's on shard 0 of a ShardSet, which decides them, else its own.
	replicas []*Controller
	// planned is set while a maintenance window cuts its link, so the hits
	// it causes attribute to planned work rather than a plant failure.
	planned bool

	sla      *slo.Ledger
	alarmLog *alarms.Log
	flight   *slo.FlightRecorder

	retry        RetryPolicy
	faultModel   *faults.Model
	degradeToOTN bool

	choreo Choreography
	pcache *pathCache
	prearm *prearmPools

	events eventLog

	tr  *obs.Tracer
	reg *obs.Registry
	ins instruments

	// pipeCarrier maps an OTN pipe to the internal wavelength connection
	// that carries it.
	pipeCarrier map[otn.PipeID]ConnID
	// pendingPipes tracks in-flight pipe builds by canonical node pair so
	// concurrent circuit setups share them.
	pendingPipes map[string]*sim.Job

	shard ShardInfo

	// onEvent / onAlarmGroup, when set, observe every audit-log append (by
	// the entry's index in this controller's log) and alarm-group append — a
	// ShardSet merges per-shard streams through them.
	onEvent      func(index int)
	onAlarmGroup func(alarms.Group)
}

// New builds a controller over the given topology.
func New(k *sim.Kernel, g *topo.Graph, cfg Config) (*Controller, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ocfg := cfg.Optics
	if ocfg.Channels == 0 && ocfg.ReachKM == 0 {
		ocfg = optics.DefaultConfig()
	}
	plant, err := optics.NewPlant(g, ocfg)
	if err != nil {
		return nil, err
	}
	lat := cfg.Latencies
	if lat.ControllerOverhead == 0 && lat.LaserTune == 0 {
		lat = ems.Default()
	}
	nClient, nLine := cfg.FXCClientPorts, cfg.FXCLinePorts
	if nClient <= 0 {
		nClient = 16
	}
	if nLine <= 0 {
		nLine = 16
	}
	addDrop := cfg.AddDropPorts
	if addDrop <= 0 {
		addDrop = ocfg.OTsPerNode + 2*ocfg.RegensPerNode
		if addDrop <= 0 {
			addDrop = 16
		}
	}
	roadms, err := roadm.NewLayer(g, addDrop)
	if err != nil {
		return nil, err
	}

	c := &Controller{
		k:            k,
		g:            g,
		plant:        plant,
		fabric:       otn.FabricFrom(g),
		roadms:       roadms,
		fxcs:         make(map[topo.NodeID]*fxc.Switch),
		lat:          lat,
		rwaOpt:       rwa.Options{Rand: k.Rand()},
		ledger:       inventory.NewLedger(),
		roadmEMS:     ems.NewManager("roadm-ems", k),
		otnEMS:       ems.NewManager("otn-ems", k),
		fxcEMS:       make(map[topo.NodeID]*ems.Manager),
		bookings:     make(map[int]*Booking),
		accessUsed:   make(map[topo.SiteID]bw.Rate),
		autoRepair:   cfg.AutoRepair,
		crews:        make(map[topo.LinkID]*sim.Timer),
		pipeCarrier:  make(map[otn.PipeID]ConnID),
		pendingPipes: make(map[string]*sim.Job),
		shard:        cfg.Shard,
		degradeToOTN: cfg.DegradeToOTN,
		choreo:       cfg.Choreography,
		tr:           cfg.Tracer,
		reg:          obs.NewRegistry(),
	}
	if cfg.Shard.Coordinator != nil {
		// Installed before any reservation so rehydration's spectrum
		// replays re-register their cross-shard claims automatically.
		plant.SetBroker(cfg.Shard.Coordinator.Broker(cfg.Shard.Index))
	}
	if cfg.PathCache {
		c.pcache = &pathCache{entries: make(map[pathKey]pathEntry), version: g.Version()}
		// Any link-state change — cut or restore — invalidates every cached
		// route: restores make cached detours stale too.
		plant.SetOnLinkState(func(topo.LinkID, bool) { c.pcacheFlush() })
	}
	if cfg.PreArm.enabled() {
		c.prearm = newPrearmPools(cfg.PreArm, g)
	}
	c.jrnl = cfg.Journal
	c.snapshotEvery = cfg.SnapshotEvery
	if c.snapshotEvery == 0 {
		c.snapshotEvery = 256
	}
	c.nextSnapshot = c.snapshotEvery
	c.retry = DefaultRetryPolicy()
	if cfg.Faults != nil {
		c.faultModel = faults.NewModel(k, *cfg.Faults)
		c.roadmEMS.SetFaults(c.faultModel)
		c.otnEMS.SetFaults(c.faultModel)
	}
	c.roadmEMS.SetTracer(c.tr)
	c.otnEMS.SetTracer(c.tr)
	fxcLayout := fxc.StandardLayout(nClient, nLine, 16)
	for _, n := range g.Nodes() {
		c.fxcs[n.ID] = fxcLayout.Switch(n.ID)
		m := ems.NewManager(fmt.Sprintf("fxc-ctl-%s", n.ID), k)
		m.SetTracer(c.tr)
		if c.faultModel != nil {
			m.SetFaults(c.faultModel)
		}
		c.fxcEMS[n.ID] = m
	}
	c.initObs()
	c.sla = slo.New(c.reg)
	c.alarmLog = alarms.NewLog(alarmLogSize)
	if cfg.FlightRecorder > 0 {
		c.flight = slo.NewFlightRecorder(cfg.FlightRecorder, c.reg)
		c.flight.AttachLedger(c.sla)
		tail := cfg.FlightRecorder
		c.flight.AttachSpans(func() []slo.SpanRecord { return c.spanTail(tail) })
	}
	c.correlator = alarms.NewCorrelator(k, correlationWindow, c.onAlarmBatch)
	c.replicas = []*Controller{c}
	return c, nil
}

// Graph returns the topology.
func (c *Controller) Graph() *topo.Graph { return c.g }

// Plant returns the photonic plant.
func (c *Controller) Plant() *optics.Plant { return c.plant }

// SetQuota installs a customer quota through the controller so the change is
// journaled. Callers holding the Ledger directly bypass durability.
func (c *Controller) SetQuota(cust inventory.Customer, q inventory.Quota) {
	c.ledger.SetQuota(cust, q)
	c.journalCommit(commitSet{reason: "quota", quotas: true})
}

// Booking returns cust's booking by ID. Booking IDs are small guessable
// integers, so the lookup itself is the isolation gate: a booking owned by a
// different customer is indistinguishable from one that does not exist.
func (c *Controller) Booking(cust inventory.Customer, id int) (*Booking, error) {
	b := c.bookings[id]
	if b == nil || b.Req.Customer != cust {
		return nil, fmt.Errorf("core: no booking %d for %s", id, cust)
	}
	return b, nil
}

// Bookings returns cust's bookings sorted by ID.
func (c *Controller) Bookings(cust inventory.Customer) []*Booking {
	var out []*Booking
	for _, b := range c.sortedBookings() {
		if b.Req.Customer == cust {
			out = append(out, b)
		}
	}
	return out
}

// AllBookings returns every booking sorted by ID — the operator view; the
// customer-facing path is Bookings.
func (c *Controller) AllBookings() []*Booking { return c.sortedBookings() }

// FaultModel returns the EMS fault model (nil when chaos is disabled).
func (c *Controller) FaultModel() *faults.Model { return c.faultModel }

// Conn returns a connection by ID, or nil.
func (c *Controller) Conn(id ConnID) *Connection { return c.conns.get(id) }

// liveConns returns the connections that are not released, sorted by ID. It
// is a copy: callers change connection states while they iterate.
func (c *Controller) liveConns() []*Connection { return slices.Clone(c.conns.live) }

// CustomerConnections returns cust's non-internal connections sorted by ID —
// what the customer GUI shows. The slice is the controller's own, as of this
// call: read it, do not write to it.
func (c *Controller) CustomerConnections(cust inventory.Customer) []*Connection {
	return view(c.conns.byCust[cust])
}

// EventsFor returns the audit entries mentioning a connection.
func (c *Controller) EventsFor(id ConnID) []Event { return c.events.forConn(id) }

// log appends one audit entry about conn (nil for entries about no
// connection).
func (c *Controller) log(conn *Connection, kind, format string, args ...any) {
	c.events.append(c.k.Now(), conn, kind, format, args...)
	if c.flight != nil {
		e := c.events.at(c.events.len() - 1)
		c.flight.Event(e.At, string(e.Conn), e.Kind, e.Text)
	}
	if c.onEvent != nil {
		c.onEvent(c.events.len() - 1)
	}
}

// NowTime returns the controller's kernel clock.
func (c *Controller) NowTime() sim.Time { return c.k.Now() }

func (c *Controller) newConnID() ConnID {
	var id ConnID
	if c.shard.sharded() {
		// Shard-prefixed so IDs are unique across the ShardSet; unsharded
		// controllers keep the historical plain form byte-for-byte.
		id = ConnID(fmt.Sprintf("S%d.C%04d", c.shard.Index, c.nextConn))
	} else {
		id = ConnID(fmt.Sprintf("C%04d", c.nextConn))
	}
	c.nextConn++
	return id
}

// BillGbHours returns the customer's cumulative delivered gigabit-hours —
// the BoD billing unit: usage-based instead of calendar-based, with outages
// excluded. Internal carrier connections are never billed.
func (c *Controller) BillGbHours(cust inventory.Customer) float64 {
	now := c.k.Now()
	var total float64
	// Sum in ID order: float addition is not associative, and map-order
	// iteration made the last decimals of an invoice vary run to run.
	for _, conn := range c.conns.byCust[cust] {
		total += conn.UsageGbHours(now)
	}
	return total
}

// ProbeRoute dry-runs route-and-wavelength assignment between two PoPs at
// the given rate without reserving anything — the planning/what-if query the
// GUI and experiments use. The returned route reflects current spectrum and
// failure state.
func (c *Controller) ProbeRoute(a, b topo.NodeID, rate bw.Rate) (rwa.Route, error) {
	opt := c.rwaOpt
	opt.Rate = rate
	return rwa.FindRoute(c.plant, a, b, opt)
}

// jit applies the configured jitter to a latency table entry.
func (c *Controller) jit(d sim.Duration) sim.Duration {
	return c.lat.Jitter(c.k.Rand(), d)
}

// siteHome resolves a site and its home PoP.
func (c *Controller) siteHome(id topo.SiteID) (*topo.Site, error) {
	s := c.g.Site(id)
	if s == nil {
		return nil, fmt.Errorf("core: unknown site %s", id)
	}
	return s, nil
}

// reserveAccess admits rate onto both sites' access pipes, or fails without
// partial effect.
func (c *Controller) reserveAccess(a, b *topo.Site, rate bw.Rate) error {
	if c.accessUsed[a.ID]+rate > bw.GbpsOf(a.AccessGbps) {
		return fmt.Errorf("core: site %s access pipe full (%v of %vG in use)", a.ID, c.accessUsed[a.ID], a.AccessGbps)
	}
	if c.accessUsed[b.ID]+rate > bw.GbpsOf(b.AccessGbps) {
		return fmt.Errorf("core: site %s access pipe full (%v of %vG in use)", b.ID, c.accessUsed[b.ID], b.AccessGbps)
	}
	c.accessUsed[a.ID] += rate
	c.accessUsed[b.ID] += rate
	return nil
}

func (c *Controller) releaseAccess(a, b topo.SiteID, rate bw.Rate) {
	c.accessUsed[a] -= rate
	c.accessUsed[b] -= rate
}
