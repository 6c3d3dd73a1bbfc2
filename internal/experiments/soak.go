package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/faults"
	"griphon/internal/inventory"
	"griphon/internal/metrics"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// The soak harness is one seeded loop of randomized operations — setups,
// teardowns, rate adjustments, fiber cuts, rolls, re-grooms, housekeeping and
// time jumps — on a core.ShardSet running the probabilistic EMS fault model
// (vendor timeouts, rejected configurations, latency inflation, brownout
// windows). After every operation the invariant auditor, cross-shard sweeps
// included, checks the whole resource database. The paper's pitch is an
// automated controller operators can trust against a hostile field (§2.2,
// §3); the soak is that claim under test. Three presets share the loop, the
// audit and the result table; DESIGN.md §18 lists the oracles each checks.

// soak is one preset of the harness.
type soak struct {
	id, paper string
	seed      int64
	steps     int
	// tenants spreads connects over that many customers; 0 means a single
	// customer named after the preset.
	tenants int
	shards  int
	core    core.Config
	// crashTrials, when positive, journals the run to tiny WAL segments and
	// crashes it instead of draining it: the WAL is cut at that many random
	// offsets and every segment boundary, and each recovery is diffed
	// against the state shadowed at its surviving sequence number.
	crashTrials int
	// injectLeak lights a channel behind the coordinator's back halfway
	// through, proving the cross-shard audit discriminates.
	injectLeak bool
}

// chaosConfig is the controller the chaos presets run: auto-repair crews,
// the default EMS fault profile, degradation to OTN, and the fast-setup
// machinery (graph executor, path cache, pre-arming), which must all hold up
// under the fault model with the same silent audit.
func chaosConfig() core.Config {
	prof := faults.DefaultProfile()
	return core.Config{
		AutoRepair:   true,
		Faults:       &prof,
		DegradeToOTN: true,
		Choreography: core.ChoreoGraph,
		PathCache:    true,
		PreArm:       core.PreArm{WarmOTsPerNode: 1, WarmSessions: 2},
	}
}

// Chaos is the chaos soak: one shard, one customer, 500 operations, then a
// final drain and the SLA-ledger tiling check.
func Chaos(seed int64) (Result, error) { return ChaosN(seed, 500) }

// ChaosN runs the chaos soak for a configurable number of operations (the
// short CI mode uses fewer).
func ChaosN(seed int64, steps int) (Result, error) {
	return soak{id: "chaos", paper: "§2.2/§3 extension: fault-model soak with invariant audit",
		seed: seed, steps: steps, shards: 1, core: chaosConfig()}.run()
}

// ChaosShardedN is the multi-tenant chaos soak: the same mix and oracles with
// connects spread over many tenants on a sharded control plane, so the audit
// also sweeps the cross-shard invariants (coordinator claim/lit-channel
// balance, tenant→shard ownership). With injectLeak a spectrum reservation is
// made behind the coordinator's back mid-soak.
func ChaosShardedN(seed int64, steps, tenants, shards int, injectLeak bool) (Result, error) {
	return soak{id: "chaos-tenants", paper: "§2.2 extension: multi-tenant soak with cross-shard audit",
		seed: seed, steps: steps, tenants: tenants, shards: shards, core: chaosConfig(),
		injectLeak: injectLeak}.run()
}

// CrashRec is the crash-recovery soak: a journaled one-shard controller runs
// 120 operations of the chaos mix and is crashed mid-workload, then its WAL
// is cut at 25 random offsets, every segment boundary and a mid-compaction
// layout, and every recovery is diffed against its shadow (crashRun).
func CrashRec(seed int64) (Result, error) { return CrashRecN(seed, 25) }

// CrashRecN runs the crash-recovery soak with a configurable number of
// random-cut trials.
func CrashRecN(seed int64, trials int) (Result, error) {
	prof := faults.DefaultProfile()
	return soak{id: "crashrec", paper: "§2.2 extension: WAL crash injection with shadow-state diff",
		seed: seed, steps: 120, shards: 1, crashTrials: trials,
		core: core.Config{AutoRepair: true, Faults: &prof, SnapshotEvery: crashSnapshotEvery}}.run()
}

// run drives the preset and checks its oracles.
func (p soak) run() (Result, error) {
	res := Result{ID: p.id, Paper: p.paper}
	cfg := p.core
	// Keep the flight recorder rolling so a tripped oracle can dump the last
	// events/commits/alarm groups for post-mortem.
	cfg.FlightRecorder = 256
	var crash *crashRun
	if p.crashTrials > 0 {
		var err error
		if crash, err = newCrashRun(); err != nil {
			return Result{}, err
		}
		defer crash.remove()
		cfg.Journal = crash.store
	}
	set, err := core.NewShardSet(topo.Testbed(), core.ShardSetConfig{Shards: p.shards, Seed: p.seed, Core: cfg})
	if err != nil {
		return Result{}, err
	}
	defer set.Close()
	if crash != nil {
		if err := crash.shadow(set.Shard(0).Ctrl); err != nil {
			return Result{}, err
		}
	}

	custs := []inventory.Customer{inventory.Customer(p.id)}
	if p.tenants > 0 {
		custs = make([]inventory.Customer, p.tenants)
		for i := range custs {
			custs[i] = inventory.Customer(fmt.Sprintf("tenant-%04d", i))
		}
	}
	w := &workload{set: set, rng: set.Shard(0).Kernel.Rand(), custs: custs, cuts: map[topo.LinkID][]sim.Time{}}

	findings := 0
	audit := func(step int, op string) {
		for _, f := range set.AuditInvariants() {
			findings++
			res.notef("AUDIT step %d after %s: %s", step, op, f)
		}
	}
	leaked := false
	for step := 0; step < p.steps; step++ {
		op := w.step()
		if p.injectLeak && step == p.steps/2 {
			op, leaked = "leak", leakChannel(set)
		}
		audit(step, op)
	}

	// A crashed run is deliberately not drained: the crash lands
	// mid-workload, with setups, teardowns and repairs still in flight.
	var slaBad []string
	recovery := 0
	if crash == nil {
		set.Drain()
		audit(p.steps, "final drain")
		// Close the fault-visibility loop: with every event drained, each
		// shard's SLA ledger must tile the injected failure windows in
		// virtual time — zero unattributed downtime, and the ledger's
		// accounting byte-identical to the controller's own outage clocks.
		for _, sh := range set.Shards() {
			slaBad = append(slaBad, verifySLA(sh.Ctrl, sh.Kernel.Now(), w.cuts)...)
		}
		for _, line := range slaBad {
			res.notef("SLA %s", line)
		}
	}

	var stats faults.Stats
	for _, sh := range set.Shards() {
		s := sh.Ctrl.FaultModel().Stats()
		stats.Decisions += s.Decisions
		stats.Transients += s.Transients
		stats.Persistents += s.Persistents
		stats.Slowed += s.Slowed
		stats.Brownouts += s.Brownouts
	}
	mv := func(name, labelSub string) float64 {
		total := 0.0
		for _, sh := range set.Shards() {
			for _, pt := range sh.Ctrl.Metrics().Snapshot() {
				if pt.Name == name && strings.Contains(pt.Labels, labelSub) {
					total += pt.Value
				}
			}
		}
		return total
	}

	tb := metrics.NewTable("Chaos soak: randomized ops under the EMS fault model", "Quantity", "Value")
	tb.Row("operations", float64(p.steps))
	if p.tenants > 0 {
		tb.Row("tenants", float64(p.tenants))
		tb.Row("shards", float64(set.Len()))
	}
	tb.Row("connects", float64(w.connects))
	tb.Row("connects blocked at admission", float64(w.blocked))
	tb.Row("EMS command decisions", float64(stats.Decisions))
	tb.Row("transient faults", float64(stats.Transients))
	tb.Row("persistent faults", float64(stats.Persistents))
	tb.Row("slowed commands", float64(stats.Slowed))
	tb.Row("brownout windows", float64(stats.Brownouts))
	tb.Row("EMS retries", mv("griphon_ems_retries_total", ""))
	tb.Row("setups rerouted", mv("griphon_setup_degraded_total", `mode="reroute"`))
	tb.Row("setups groomed", mv("griphon_setup_degraded_total", `mode="groomed"`))
	tb.Row("restorations", mv("griphon_restorations_total", `outcome="restored"`))
	if crash == nil {
		tb.Row("SLA outages attributed", mv("griphon_sla_outages_total", ""))
		tb.Row("SLA unattributed outages", mv("griphon_sla_unattributed_total", ""))
		tb.Row("SLA findings", float64(len(slaBad)))
	}
	tb.Row("audit findings", float64(findings))
	res.Tables = append(res.Tables, tb)

	injected := stats.Transients + stats.Persistents
	if findings+len(slaBad) == 0 {
		where := ""
		if set.Len() > 1 {
			where = fmt.Sprintf(" across %d shards", set.Len())
		}
		note := fmt.Sprintf("books balanced%s after every one of %d operations under %d injected faults", where, p.steps, injected)
		if crash == nil {
			note += fmt.Sprintf("; SLA ledger tiles all %d injected cut windows with zero unattributed downtime", len(w.cuts))
		}
		res.notef("%s", note)
	} else {
		res.notef("VIOLATIONS: %d audit findings, %d SLA findings — see notes above", findings, len(slaBad))
	}
	if crash != nil {
		if recovery, err = crash.crash(&res, p.seed, p.crashTrials); err != nil {
			return Result{}, err
		}
	}

	res.value("findings", float64(findings+len(slaBad)+recovery))
	res.value("audit_findings", float64(findings))
	res.value("connects", float64(w.connects))
	res.value("decisions", float64(stats.Decisions))
	res.value("sla_outages", mv("griphon_sla_outages_total", ""))
	res.value("unattributed", mv("griphon_sla_unattributed_total", ""))
	if p.injectLeak {
		res.value("leak_injected", b2f(leaked))
	}
	if res.Values["findings"] > 0 {
		// Something tripped: dump every shard's flight recorder so the
		// failure carries its own post-mortem (recent events, commits, alarm
		// groups, spans), one JSON document per shard.
		var buf bytes.Buffer
		for _, d := range set.DumpFlight(p.id+"-soak", append([]string(nil), res.Notes...)) {
			if err := d.WriteJSON(&buf); err != nil {
				return Result{}, err
			}
		}
		res.artifact("flight.json", buf.Bytes())
	}
	return res, nil
}

// workload is the soak's operation mix in progress.
type workload struct {
	set   *core.ShardSet
	rng   *sim.Rand
	custs []inventory.Customer
	live  []*core.Connection
	// cuts records every fiber-cut injection instant: verifySLA requires
	// every fiber-cut outage to anchor to one of these.
	cuts              map[topo.LinkID][]sim.Time
	connects, blocked int
}

var (
	soakSites    = []topo.SiteID{"DC-A", "DC-B", "DC-C"}
	soakRates    = []bw.Rate{bw.Rate1G, bw.Rate2G5, bw.Rate10G}
	soakProtects = []core.Protection{core.Restore, core.Unprotected, core.OnePlusOne, core.Restore}
)

// step draws one operation, applies it, and returns its name. It is the one
// place soak operations are chosen: an operation added here reaches every
// preset. Errors are expected — a request may block, race a teardown or
// find nothing to do — and only the audit judges the outcome.
func (w *workload) step() string {
	rng, set := w.rng, w.set
	switch rng.Intn(10) {
	case 0, 1, 2:
		a := soakSites[rng.Intn(len(soakSites))]
		b := soakSites[rng.Intn(len(soakSites))]
		if a == b {
			return "connect"
		}
		rate := soakRates[rng.Intn(len(soakRates))]
		p := soakProtects[rng.Intn(len(soakProtects))]
		if rate < bw.Rate10G && p == core.OnePlusOne {
			p = core.Restore
		}
		cust := w.custs[0]
		if len(w.custs) > 1 {
			cust = w.custs[rng.Intn(len(w.custs))]
		}
		if conn, _, err := set.For(cust).Connect(core.Request{Customer: cust, From: a, To: b, Rate: rate, Protect: p}); err != nil {
			w.blocked++
		} else {
			w.connects++
			w.live = append(w.live, conn)
		}
		return "connect"
	case 3, 4:
		if len(w.live) > 0 {
			i := rng.Intn(len(w.live))
			conn := w.live[i]
			if conn.State == core.StateActive || conn.State == core.StateDown {
				set.For(conn.Customer).Disconnect(conn.Customer, conn.ID) //lint:allow errcheck may race with teardown
			}
			w.live = append(w.live[:i], w.live[i+1:]...)
		}
		return "disconnect"
	case 5:
		for _, conn := range w.live {
			if conn.Layer == core.LayerOTN && conn.State == core.StateActive {
				set.For(conn.Customer).AdjustRate(conn.Customer, conn.ID, soakRates[rng.Intn(2)]) //lint:allow errcheck may be blocked
				break
			}
		}
		return "adjust"
	case 6:
		// Shard 0 decides the cut, every shard's plant replica takes it at
		// one instant, and shard 0's crew repairs it.
		ctrl := set.Shard(0).Ctrl
		links := ctrl.Graph().Links()
		l := links[rng.Intn(len(links))]
		if ctrl.Plant().LinkUp(l.ID) {
			w.cuts[l.ID] = append(w.cuts[l.ID], set.Now())
			set.CutFiber(l.ID) //lint:allow errcheck verified up
		}
		return "cut"
	case 7:
		for _, conn := range w.live {
			if conn.Layer == core.LayerDWDM && conn.State == core.StateActive && conn.Protect != core.OnePlusOne {
				ctrl := set.For(conn.Customer)
				if rng.Intn(2) == 0 {
					ctrl.BridgeAndRoll(conn.Customer, conn.ID, nil) //lint:allow errcheck may lack disjoint path
				} else {
					ctrl.Regroom(conn.Customer, conn.ID) //lint:allow errcheck may be optimal already
				}
				break
			}
		}
		return "roll"
	case 8:
		defrag := rng.Intn(2) == 0
		for _, sh := range set.Shards() {
			if defrag {
				sh.Ctrl.DefragmentSpectrum()
			} else {
				sh.Ctrl.ReclaimIdlePipes()
			}
		}
		return "housekeeping"
	default:
		// Let time pass in lockstep: EMS queues drain, crews repair,
		// brownouts roll.
		set.Advance(time.Duration(rng.Intn(120)) * time.Minute)
		return "advance"
	}
}

// leakChannel plays a buggy component that lights a free channel on the last
// shard with the broker bypassed: the shard's audit sees a channel no
// connection owns, and the cross-shard sweep a lit channel with no
// coordinator claim. It reports whether a channel was free to light.
func leakChannel(set *core.ShardSet) bool {
	last := set.Len() - 1
	plant := set.Shard(last).Ctrl.Plant()
	free := plant.ContinuityChannels([]topo.LinkID{"II-III"})
	if len(free) == 0 {
		return false
	}
	broker := set.Coordinator().Broker(last)
	plant.SetBroker(nil)
	defer plant.SetBroker(broker)
	return plant.Spectrum("II-III").Reserve(free[len(free)-1], "rogue") == nil
}

// verifySLA sweeps a controller's availability ledger after the soak's final
// drain and returns one line per violation of the fault-visibility contract:
//
//   - ledger downtime equals Connection.Outage to the virtual nanosecond;
//   - no outage interval is still open once every event has drained;
//   - every interval carries a root cause (never CauseUnknown);
//   - every fiber-cut interval starts at one of the recorded injection
//     instants on its named link;
//   - closed phases tile each interval contiguously from start to end.
func verifySLA(ctrl *core.Controller, now sim.Time, cuts map[topo.LinkID][]sim.Time) []string {
	var bad []string
	oops := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	led := ctrl.SLA()
	for _, id := range led.Conns() {
		conn := ctrl.Conn(core.ConnID(id))
		if conn == nil {
			oops("conn %s: ledger tracks a connection the controller does not know", id)
			continue
		}
		if got, want := led.Downtime(id, now), conn.Outage(now); got != want {
			oops("conn %s: ledger downtime %v != controller outage %v", id, got, want)
		}
		for i, o := range led.Outages(id) {
			if o.Open {
				oops("conn %s outage %d: still open after final drain (%v)", id, i, o)
			}
			if o.Cause == slo.CauseUnknown {
				oops("conn %s outage %d: unattributed (%v)", id, i, o)
			}
			if o.Cause == slo.CauseFiberCut && !cutAt(cuts[o.Link], o.Start) {
				oops("conn %s outage %d: fiber-cut start %v matches no injected cut on %s",
					id, i, o.Start, o.Link)
			}
			at := o.Start
			for j, p := range o.Phases {
				if p.Open {
					oops("conn %s outage %d: phase %q still open in a closed interval", id, i, p.Name)
					break
				}
				if p.Start != at {
					oops("conn %s outage %d phase %d (%q): starts at %v, previous ended at %v",
						id, i, j, p.Name, p.Start, at)
				}
				at = p.End
			}
			if len(o.Phases) > 0 && !o.Open && at != o.End {
				oops("conn %s outage %d: phases end at %v, interval at %v", id, i, at, o.End)
			}
		}
	}
	return bad
}

// cutAt reports whether at is one of the recorded injection instants.
func cutAt(times []sim.Time, at sim.Time) bool {
	for _, t := range times {
		if t == at {
			return true
		}
	}
	return false
}
