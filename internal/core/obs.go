package core

import (
	"sort"

	"griphon/internal/alarms"
	"griphon/internal/ems"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// instruments bundles the controller's metric handles. Every handle is
// created once at construction; updates on the hot paths are plain field
// increments and never allocate.
type instruments struct {
	// Indexed by Layer (LayerDWDM, LayerOTN).
	setupOK     [2]*obs.Counter
	setupFailed [2]*obs.Counter
	setupSecs   [2]*obs.Histogram
	restoreSecs [2]*obs.Histogram

	blockedAdmission *obs.Counter
	blockedRoute     *obs.Counter
	teardowns        *obs.Counter
	teardownSecs     *obs.Histogram
	restored         *obs.Counter
	restoreBlocked   *obs.Counter
	protSwitches     *obs.Counter
	rolls            *obs.Counter
	rollHitSecs      *obs.Histogram
	adjusts          *obs.Counter
	retunes          *obs.Counter
	pipeBuilds       *obs.Counter
	cuts             *obs.Counter
	repairs          *obs.Counter
	emsRetries       *obs.Counter
	setupRerouted    *obs.Counter
	setupGroomed     *obs.Counter
	bookingCloseErrs *obs.Counter
	journalErrs      *obs.Counter

	// Indexed by alarms.Type and alarms.GroupKind respectively.
	alarmsObserved [3]*obs.Counter
	alarmGroups    [3]*obs.Counter

	pathcacheHit           *obs.Counter
	pathcacheMiss          *obs.Counter
	pathcacheInvalidations *obs.Counter
	pathcacheEvictDeadLink *obs.Counter
	pathcacheEvictBlocked  *obs.Counter
	prearmClaimsSession    *obs.Counter
	prearmClaimsOT         *obs.Counter
	prearmRearmOK          *obs.Counter
	prearmRearmFailed      *obs.Counter
}

// Metrics returns the controller's instrument registry. It is always
// non-nil; the HTTP API serves it at GET /api/v1/metrics and the experiments
// harness reads it instead of keeping ad-hoc tallies.
func (c *Controller) Metrics() *obs.Registry { return c.reg }

// initObs creates every instrument and registers the live-state gauges.
// Gauge functions are evaluated only at export (scrape) time, so steady-state
// operation pays nothing for them.
func (c *Controller) initObs() {
	r := c.reg
	layers := [2]string{LayerDWDM.String(), LayerOTN.String()}
	for l, name := range layers {
		c.ins.setupOK[l] = r.Counter("griphon_setups_total",
			"Connection setups completed, by layer and outcome.", "layer", name, "outcome", "ok")
		c.ins.setupFailed[l] = r.Counter("griphon_setups_total",
			"Connection setups completed, by layer and outcome.", "layer", name, "outcome", "failed")
		c.ins.setupSecs[l] = r.Histogram("griphon_setup_seconds",
			"Connection establishment latency in virtual seconds (paper Table 2).", nil, "layer", name)
		c.ins.restoreSecs[l] = r.Histogram("griphon_restoration_seconds",
			"Failure-to-restored latency in virtual seconds, by layer.", nil, "layer", name)
	}
	c.ins.blockedAdmission = r.Counter("griphon_blocked_total",
		"Connection requests refused, by reason.", "reason", "admission")
	c.ins.blockedRoute = r.Counter("griphon_blocked_total",
		"Connection requests refused, by reason.", "reason", "route")
	c.ins.teardowns = r.Counter("griphon_teardowns_total", "Connection teardowns completed.")
	c.ins.teardownSecs = r.Histogram("griphon_teardown_seconds",
		"Teardown latency in virtual seconds (paper: ~10 s).", nil)
	c.ins.restored = r.Counter("griphon_restorations_total",
		"Automated restorations, by outcome.", "outcome", "restored")
	c.ins.restoreBlocked = r.Counter("griphon_restorations_total",
		"Automated restorations, by outcome.", "outcome", "blocked")
	c.ins.protSwitches = r.Counter("griphon_protection_switches_total",
		"1+1 tail-end protection switches.")
	c.ins.rolls = r.Counter("griphon_rolls_total", "Bridge-and-roll operations completed.")
	c.ins.rollHitSecs = r.Histogram("griphon_roll_hit_seconds",
		"Traffic hit of the bridge-and-roll roll step.",
		[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1})
	c.ins.adjusts = r.Counter("griphon_adjusts_total", "In-place rate adjustments.")
	c.ins.retunes = r.Counter("griphon_defrag_retunes_total",
		"Connections retuned by spectrum defragmentation.")
	c.ins.pipeBuilds = r.Counter("griphon_pipe_builds_total",
		"Carrier wavelengths lit to create OTN overlay pipes.")
	c.ins.cuts = r.Counter("griphon_fiber_cuts_total", "Fiber cuts observed.")
	c.ins.repairs = r.Counter("griphon_fiber_repairs_total", "Fiber repairs completed.")
	c.ins.emsRetries = r.Counter("griphon_ems_retries_total",
		"EMS steps resubmitted after a transient fault.")
	c.ins.setupRerouted = r.Counter("griphon_setup_degraded_total",
		"Setups that fell down the degradation ladder, by mode.", "mode", "reroute")
	c.ins.setupGroomed = r.Counter("griphon_setup_degraded_total",
		"Setups that fell down the degradation ladder, by mode.", "mode", "groomed")
	c.ins.bookingCloseErrs = r.Counter("griphon_booking_close_errors_total",
		"Disconnect errors hit while closing booking windows (including retried ones).")
	c.ins.journalErrs = r.Counter("griphon_journal_errors_total",
		"Journal writes that failed; the controller keeps running on memory.")
	c.ins.alarmsObserved[alarms.LOS] = r.Counter("griphon_alarms_total",
		"Element alarms entering the correlator, by type.", "type", "los")
	c.ins.alarmsObserved[alarms.LOF] = r.Counter("griphon_alarms_total",
		"Element alarms entering the correlator, by type.", "type", "lof")
	c.ins.alarmsObserved[alarms.EquipmentFail] = r.Counter("griphon_alarms_total",
		"Element alarms entering the correlator, by type.", "type", "eqpt")
	c.ins.alarmGroups[alarms.GroupFiberCut] = r.Counter("griphon_alarms_groups_total",
		"Correlated alarm groups emitted, by root-cause kind.", "kind", "fiber_cut")
	c.ins.alarmGroups[alarms.GroupEquipment] = r.Counter("griphon_alarms_groups_total",
		"Correlated alarm groups emitted, by root-cause kind.", "kind", "equipment")
	c.ins.alarmGroups[alarms.GroupService] = r.Counter("griphon_alarms_groups_total",
		"Correlated alarm groups emitted, by root-cause kind.", "kind", "service")
	c.ins.pathcacheHit = r.Counter("griphon_pathcache_lookups_total",
		"Path-cache lookups on cache-eligible route requests, by result.", "result", "hit")
	c.ins.pathcacheMiss = r.Counter("griphon_pathcache_lookups_total",
		"Path-cache lookups on cache-eligible route requests, by result.", "result", "miss")
	c.ins.pathcacheInvalidations = r.Counter("griphon_pathcache_invalidations_total",
		"Path-cache flushes triggered by link-state or topology changes.")
	c.ins.pathcacheEvictDeadLink = r.Counter("griphon_pathcache_evictions_total",
		"Single entries evicted on the lookup hit path, by reason.", "reason", "dead_link")
	c.ins.pathcacheEvictBlocked = r.Counter("griphon_pathcache_evictions_total",
		"Single entries evicted on the lookup hit path, by reason.", "reason", "wavelength_blocked")
	c.ins.prearmClaimsSession = r.Counter("griphon_prearm_claims_total",
		"Warm resources claimed by setups, by kind.", "kind", "session")
	c.ins.prearmClaimsOT = r.Counter("griphon_prearm_claims_total",
		"Warm resources claimed by setups, by kind.", "kind", "transponder")
	c.ins.prearmRearmOK = r.Counter("griphon_prearm_rearms_total",
		"Background warm-pool refills, by outcome.", "outcome", "ok")
	c.ins.prearmRearmFailed = r.Counter("griphon_prearm_rearms_total",
		"Background warm-pool refills, by outcome.", "outcome", "failed")
	if c.jrnl != nil {
		r.CounterFunc("griphon_journal_appends_total", "WAL records appended.",
			func() float64 { return float64(c.jrnl.Stats().Appends) })
		r.CounterFunc("griphon_journal_bytes_total", "WAL bytes written.",
			func() float64 { return float64(c.jrnl.Stats().Bytes) })
		r.CounterFunc("griphon_journal_fsyncs_total", "Journal fsync calls issued.",
			func() float64 { return float64(c.jrnl.Stats().Fsyncs) })
		r.CounterFunc("griphon_journal_snapshots_total", "Full state snapshots written.",
			func() float64 { return float64(c.jrnl.Stats().Snapshots) })
		r.CounterFunc("griphon_journal_replayed_total", "WAL entries replayed at the last open.",
			func() float64 { return float64(c.jrnl.Stats().Replayed) })
		r.CounterFunc("griphon_journal_torn_bytes_total", "Bytes discarded from a torn WAL tail.",
			func() float64 { return float64(c.jrnl.Stats().TornBytes) })
		r.CounterFunc("griphon_journal_group_commits_total", "Fsync batches that covered more than one append.",
			func() float64 { return float64(c.jrnl.Stats().GroupCommits) })
		r.CounterFunc("griphon_journal_rotations_total", "WAL segment rotations.",
			func() float64 { return float64(c.jrnl.Stats().Rotations) })
		r.CounterFunc("griphon_journal_compacted_total", "Snapshot-covered WAL files unlinked by the compactor.",
			func() float64 { return float64(c.jrnl.Stats().Compacted) })
		r.CounterFunc("griphon_journal_dup_seqs_total", "Duplicate WAL sequence numbers resolved last-write-wins at open.",
			func() float64 { return float64(c.jrnl.Stats().DupSeqs) })
		r.HistogramFunc("griphon_journal_sync_seconds", "Wall time of each WAL sync, in real seconds.",
			func() *obs.Histogram { h, _ := c.jrnl.SyncHistograms(); return h })
		r.HistogramFunc("griphon_journal_sync_records", "WAL records each sync newly made durable.",
			func() *obs.Histogram { _, h := c.jrnl.SyncHistograms(); return h })
	}

	// Live-state gauges, computed at scrape time from the resource database.
	for _, st := range []State{StatePending, StateActive, StateDown, StateRestoring} {
		st := st
		r.GaugeFunc("griphon_connections",
			"Customer connections by state.", func() float64 {
				n := 0
				for _, conn := range c.conns.live {
					if !conn.Internal && conn.State == st {
						n++
					}
				}
				return float64(n)
			}, "state", st.String())
	}
	r.GaugeFunc("griphon_spectrum_channels_in_use",
		"Occupied (link, wavelength) pairs across the plant.", func() float64 {
			n := 0
			for _, l := range c.g.Links() {
				n += c.plant.Spectrum(l.ID).Used()
			}
			return float64(n)
		})
	r.GaugeFunc("griphon_transponders_in_use", "Transponders allocated across all PoPs.",
		func() float64 { return float64(c.Snapshot().OTsInUse) })
	r.GaugeFunc("griphon_transponders_capacity", "Transponder pool size across all PoPs.",
		func() float64 { return float64(c.Snapshot().OTsTotal) })
	r.GaugeFunc("griphon_regens_in_use", "Regenerators allocated across all PoPs.",
		func() float64 { return float64(c.Snapshot().RegensInUse) })
	r.GaugeFunc("griphon_otn_pipes", "OTN overlay pipes in service.",
		func() float64 { return float64(len(c.fabric.Pipes())) })
	r.GaugeFunc("griphon_otn_slots_in_use", "Tributary slots reserved across all pipes.",
		func() float64 { return float64(c.Snapshot().SlotsInUse) })
	r.GaugeFunc("griphon_down_links", "Fiber links currently out of service.",
		func() float64 { return float64(len(c.plant.DownLinks())) })
	r.CounterFunc("griphon_events_total", "Audit-log entries recorded.",
		func() float64 { return float64(c.events.len()) })
	r.GaugeFunc("griphon_sim_virtual_seconds", "Virtual time since the simulation epoch.",
		func() float64 { return c.k.Now().Seconds() })
	r.CounterFunc("griphon_sim_events_total", "Discrete events executed by the kernel.",
		func() float64 { return float64(c.k.Processed()) })

	// Per-EMS instruments: the two vendor EMSes by name, the per-PoP FXC
	// controllers aggregated.
	fxcManagers := func() []*ems.Manager {
		ids := make([]string, 0, len(c.fxcEMS))
		for id := range c.fxcEMS {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		out := make([]*ems.Manager, 0, len(ids))
		for _, id := range ids {
			out = append(out, c.fxcEMS[topo.NodeID(id)])
		}
		return out
	}
	for _, grp := range []struct {
		label string
		mgrs  func() []*ems.Manager
	}{
		{"roadm", func() []*ems.Manager { return []*ems.Manager{c.roadmEMS} }},
		{"otn", func() []*ems.Manager { return []*ems.Manager{c.otnEMS} }},
		{"fxc", fxcManagers},
	} {
		grp := grp
		r.GaugeFunc("griphon_ems_queue_depth",
			"Commands waiting behind the in-flight one, by EMS.", func() float64 {
				n := 0
				for _, m := range grp.mgrs() {
					n += m.QueueLen()
				}
				return float64(n)
			}, "ems", grp.label)
		r.CounterFunc("griphon_ems_commands_total",
			"EMS configuration commands executed, by EMS.", func() float64 {
				n := uint64(0)
				for _, m := range grp.mgrs() {
					n += m.Served()
				}
				return float64(n)
			}, "ems", grp.label)
		r.CounterFunc("griphon_ems_busy_seconds_total",
			"Cumulative virtual time each EMS spent executing commands.", func() float64 {
				var d sim.Duration
				for _, m := range grp.mgrs() {
					d += m.BusyTime()
				}
				return d.Seconds()
			}, "ems", grp.label)
	}
}
