package main

import (
	"bytes"
	"fmt"

	"griphon"
	"griphon/internal/sim"
)

// A workload is one traffic mix against one daemon configuration. The names
// and reasons are mirrored in BENCHMARK.json; bench_test.go keeps them equal.
type workload struct {
	name string
	why  string

	topo        string // griphond -topo
	pops, sites int    // continental only
	shards      int
	tenants     int

	// primed workloads run 1G circuits over the OTN overlay. Set-up first
	// builds one pipe between each pair of neighbours in the sorted site
	// list, on every shard, in that fixed order. With the overlay connected,
	// every later 1G circuit is groomed onto those pipes. Left to build
	// pipes on demand in the script's shuffled order, some seeds run the
	// backbone's two regenerators per node dry and are refused.
	primed bool

	// historyCycles connect/disconnect cycles and liveTarget live 1G
	// circuits are put in place before timing; all of it counts in setup_s.
	// The cycles are the workload's own churn (history; default 1G groomed).
	// Live circuits sit between the primed pipes' own end points, so that no
	// pipe fills and asks for a second one.
	historyCycles int
	history       func(s *script)
	liveTarget    int

	// refusals are fragments of the 409 texts this workload expects to get
	// for some connects. They are the carrier saying no, counted in
	// core.blocked_share; any other refusal is a failed request.
	refusals []string

	// maxOps ends a run early. Connection IDs are formatted C%04d and listed
	// in string order, so the daemon's connect response goes wrong past
	// C9999; every cap keeps a daemon's lifetime connects well under that.
	maxOps int

	// unit appends the next few ops of one client's script.
	unit func(s *script)
}

var workloads = []*workload{
	{
		name: "churn-groomed",
		why:  "write-only 1G connect/disconnect on the backbone: api lock and decode, core commit and listing, journal append and fsync; pipes are reused so RWA does little",
		topo: "backbone", shards: 1, tenants: 64, primed: true,
		historyCycles: 256,
		maxOps:        12000,
		unit:          unitChurnGroomed,
	},
	{
		name: "churn-wavelength",
		why:  "10G/40G wavelength connect/disconnect on a 75-PoP mesh: K-shortest, disjoint pairs, wavelength assignment, the EMS step ladder and sim events dominate; the paper's 60 s-setup regime",
		topo: "continental", pops: 75, sites: 8, shards: 1, tenants: 64,
		historyCycles: 256, history: unitChurnWavelength,
		// A 1+1 request between sites with no link-disjoint path pair is
		// refused every time, by topology; and now and then the two
		// clients' wavelengths meet at a node whose two regenerators are
		// both taken.
		refusals: []string{"disjoint", "no free regen"},
		maxOps:   10000,
		unit:     unitChurnWavelength,
	},
	{
		name: "portal-read",
		why:  "30 GETs per connect/disconnect beside history and live circuits: response cache, encoder and listing dominate, journal and RWA do little; churn-groomed's api and core layers the other way round",
		topo: "backbone", shards: 1, tenants: 64, primed: true,
		historyCycles: 1000, liveTarget: 30,
		maxOps: 120000,
		unit:   unitPortalRead,
	},
	{
		name: "sharded-tenants",
		why:  "2 GETs per 1G connect/disconnect over 256 tenants on 4 shards: the only workload through shard routing, the coordinator and per-shard journals",
		topo: "backbone", shards: 4, tenants: 256, primed: true,
		historyCycles: 256,
		maxOps:        30000,
		unit:          unitShardedTenants,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// daemonSeed is the daemon's own -seed in every run. The bench's -seed picks
// the op script only; the daemon receives nothing but the generated requests.
const daemonSeed = 1

// topology builds what the daemon builds for this workload.
func (w *workload) topology() (*griphon.Topology, error) {
	switch w.topo {
	case "backbone":
		return griphon.Backbone(), nil
	case "continental":
		return griphon.Continental(w.pops, w.sites, daemonSeed)
	}
	return nil, fmt.Errorf("workload %s: unknown topology %q", w.name, w.topo)
}

// daemonArgs are the topology and sharding flags for griphond.
func (w *workload) daemonArgs() []string {
	args := []string{"-topo", w.topo}
	if w.topo == "continental" {
		args = append(args, "-pops", fmt.Sprint(w.pops), "-sites", fmt.Sprint(w.sites))
	}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards))
	}
	return args
}

type opKind uint8

const (
	opConnect opKind = iota
	opDisconnect
	opGet
)

type getKind uint8

const (
	getConnections getKind = iota
	getBill
	getSLA
	getEvents
	getStats
	getTopology
)

var getNames = [...]string{"connections", "bill", "sla", "events", "stats", "topology"}

// op is one scripted request. What a disconnect targets and which cursor an
// events page resumes from are resolved when the op runs, from the replies
// the client has seen.
type op struct {
	kind   opKind
	get    getKind
	tenant int
	// connect only
	from, to      string
	rate, protect string
	// swap makes a connect replace the circuit the tenant's last disconnect
	// took down, on the same site pair; it is skipped when there was none.
	// A workload holding live circuits turns them over this way without
	// ever asking for capacity it did not just free.
	swap bool
}

func (o op) String() string {
	switch o.kind {
	case opConnect:
		return fmt.Sprintf("connect t%d %s>%s %s %q swap=%t", o.tenant, o.from, o.to, o.rate, o.protect, o.swap)
	case opDisconnect:
		return fmt.Sprintf("disconnect t%d", o.tenant)
	}
	return fmt.Sprintf("get %s t%d", getNames[o.get], o.tenant)
}

// script is one client's endless, seed-determined op stream over its own
// tenants.
type script struct {
	w        *workload
	rng      *sim.Rand
	nClients int
	tenants  []int       // this client's share, disjoint from the others'
	pairs    [][2]string // every ordered site pair, in seed-shuffled order
	cycle    int
	queue    []op
}

// newScript builds client's stream out of nClients. Equal (workload, seed,
// client, nClients) give equal streams.
func newScript(w *workload, sites []string, seed int64, client, nClients int) *script {
	s := &script{w: w, nClients: nClients, rng: sim.NewRand(seed*7919 + int64(client)*104729 + 17)}
	for t := client; t < w.tenants; t += nClients {
		s.tenants = append(s.tenants, t)
	}
	var pairs [][2]string
	for _, a := range sites {
		for _, b := range sites {
			if a != b {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	for _, i := range s.rng.Perm(len(pairs)) {
		s.pairs = append(s.pairs, pairs[i])
	}
	return s
}

// chainPairs pairs each site with the next in the given (sorted) order.
func chainPairs(sites []string) [][2]string {
	var out [][2]string
	for i := 0; i+1 < len(sites); i++ {
		out = append(out, [2]string{sites[i], sites[i+1]})
	}
	return out
}

// primeScript is the traffic that builds the overlay: one connect/disconnect
// per chain pair on each shard, by the first of the given tenants that the
// daemon's routing (shardOf) places there.
func primeScript(w *workload, sites []string, tenants []int, shardOf func(tenant int) int) ([]op, error) {
	var ops []op
	done := map[int]bool{}
	for _, t := range tenants {
		if sh := shardOf(t); !done[sh] {
			done[sh] = true
			for _, p := range chainPairs(sites) {
				ops = append(ops,
					op{kind: opConnect, tenant: t, from: p[0], to: p[1], rate: "1G"},
					op{kind: opDisconnect, tenant: t})
			}
		}
	}
	if len(done) != w.shards {
		return nil, fmt.Errorf("workload %s: tenants reach %d of %d shards", w.name, len(done), w.shards)
	}
	return ops, nil
}

func (s *script) next() op {
	if len(s.queue) == 0 {
		s.w.unit(s)
		s.cycle++
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	return o
}

func (s *script) cycleTenant() int     { return s.tenants[s.cycle%len(s.tenants)] }
func (s *script) randomTenant() int    { return s.tenants[s.rng.Intn(len(s.tenants))] }
func (s *script) cyclePair() [2]string { return s.pairs[s.cycle%len(s.pairs)] }

func (s *script) connect(tenant int, pair [2]string, rate, protect string) op {
	return op{kind: opConnect, tenant: tenant, from: pair[0], to: pair[1], rate: rate, protect: protect}
}

// unitChurnGroomed: connect 1G with the default protection, then disconnect
// it, cycling tenants and every ordered site pair.
func unitChurnGroomed(s *script) {
	t := s.cycleTenant()
	s.queue = append(s.queue,
		s.connect(t, s.cyclePair(), "1G", ""),
		op{kind: opDisconnect, tenant: t})
}

// wavelengthClasses is churn-wavelength's equal mix of service classes.
var wavelengthClasses = [][2]string{
	{"10G", "restore"}, {"10G", "1+1"}, {"40G", "restore"}, {"10G", "unprotected"},
}

func unitChurnWavelength(s *script) {
	t := s.cycleTenant()
	class := wavelengthClasses[s.rng.Intn(len(wavelengthClasses))]
	pair := s.pairs[s.rng.Intn(len(s.pairs))]
	s.queue = append(s.queue,
		s.connect(t, pair, class[0], class[1]),
		op{kind: opDisconnect, tenant: t})
}

// portalGets is portal-read's GET mix in twentieths: connections 40 %, bill,
// sla and events 15 % each, stats 10 %, topology 5 %.
var portalGets = [20]getKind{
	getConnections, getConnections, getConnections, getConnections,
	getConnections, getConnections, getConnections, getConnections,
	getBill, getBill, getBill,
	getSLA, getSLA, getSLA,
	getEvents, getEvents, getEvents,
	getStats, getStats,
	getTopology,
}

// unitPortalRead: 30 GETs with one disconnect and, later in the unit, one
// connect that replaces the circuit on the same site pair. The tenants that
// hold live circuits take turns.
func unitPortalRead(s *script) {
	const gets = 30
	t := s.tenants[s.cycle%s.liveTenants()]
	disc := s.rng.Intn(gets)
	conn := disc + s.rng.Intn(gets-disc)
	for i := 0; i < gets; i++ {
		if i == disc {
			s.queue = append(s.queue, op{kind: opDisconnect, tenant: t})
		}
		s.queue = append(s.queue, op{kind: opGet, get: portalGets[s.rng.Intn(len(portalGets))], tenant: s.randomTenant()})
		if i == conn {
			s.queue = append(s.queue, op{kind: opConnect, tenant: t, rate: "1G", swap: true})
		}
	}
}

// unitShardedTenants: two GETs, then connect 1G and disconnect, per tenant.
func unitShardedTenants(s *script) {
	t := s.cycleTenant()
	s.queue = append(s.queue,
		op{kind: opGet, get: getConnections, tenant: t},
		op{kind: opGet, get: getBill, tenant: t},
		s.connect(t, s.cyclePair(), "1G", ""),
		op{kind: opDisconnect, tenant: t})
}

// liveTenants is how many of the client's tenants hold a live circuit after
// set-up: the first so many, one circuit each.
func (s *script) liveTenants() int {
	return max(min(s.w.liveTarget/s.nClients, len(s.tenants)), 1)
}

// preloadScript is the set-up traffic of one client: its share of the history
// cycles, then its share of the live circuits.
func preloadScript(s *script, sites []string) []op {
	history := s.w.history
	if history == nil {
		history = unitChurnGroomed
	}
	for i := 0; i < s.w.historyCycles/s.nClients; i++ {
		history(s)
		s.cycle++
	}
	ops := s.queue
	s.queue = nil
	chain := chainPairs(sites)
	for i := 0; i < s.w.liveTarget/s.nClients; i++ {
		ops = append(ops, s.connect(s.tenants[i%len(s.tenants)], chain[i%len(chain)], "1G", ""))
	}
	return ops
}

// renderScript writes the first n ops of every client's stream, for the
// determinism test and for eyeballing a workload.
func renderScript(w *workload, sites []string, seed int64, nClients, n int) []byte {
	var b bytes.Buffer
	for c := 0; c < nClients; c++ {
		s := newScript(w, sites, seed, c, nClients)
		for _, o := range preloadScript(s, sites) {
			fmt.Fprintf(&b, "c%d pre %s\n", c, o)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "c%d %s\n", c, s.next())
		}
	}
	return b.Bytes()
}
