package main

// metricSpec names one metric and its unit. The two lists below are the
// program's side of BENCHMARK.json; bench_test.go keeps the two equal.
type metricSpec struct {
	Name string
	Unit string
}

// endToEndMetrics are measured with tracing off against a spawned daemon, one
// value per workload: the median over the repeats.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"mut_p50_ms", "ms"},
	{"daemon_cpu_ms_per_op", "ms"},
	{"daemon_rss_peak_mb", "MB"},
	{"recover_s", "s"},
}

// perLayerMetrics come from the traced run. The prefix is the module.
var perLayerMetrics = []metricSpec{
	{"trace.overhead_share", "ratio"},
	{"http.transport_ms_per_op", "ms"},
	{"http.mut_p95_ms", "ms"},
	{"http.mut_p99_ms", "ms"},
	{"http.read_p50_ms", "ms"},
	{"http.read_p99_ms", "ms"},
	{"api.handler_ms_per_mut", "ms"},
	{"api.handler_ms_per_read", "ms"},
	{"api.self_ms_per_mut", "ms"},
	{"api.self_ms_per_read", "ms"},
	{"api.cache_hit_ratio", "ratio"},
	{"api.allocs_per_mut", "count"},
	{"api.allocs_per_read", "count"},
	{"api.resp_bytes_per_read", "B"},
	{"api.client_scaling", "ratio"},
	{"core.connect_ms", "ms"},
	{"core.disconnect_ms", "ms"},
	{"core.list_ms", "ms"},
	{"core.list_growth", "ratio"},
	{"core.persist_ms_per_commit", "ms"},
	{"core.commits_per_op", "count"},
	{"core.rehydrate_ms", "ms"},
	{"core.blocked_share", "ratio"},
	{"core.unattributed_ms_per_op", "ms"},
	{"budget.explained_share", "ratio"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"ems.commands_per_op", "count"},
	{"ems.retries_per_op", "count"},
	{"ems.virt_busy_s_per_setup", "s"},
	{"ems.estab_virt_p50_s", "s"},
	{"ems.estab_virt_p95_s", "s"},
	{"rwa.findroute_us", "us"},
	{"rwa.kshortest_us", "us"},
	{"rwa.disjointpair_us", "us"},
	{"rwa.allocs_per_findroute", "count"},
	{"inventory.txn_ns_per_step", "ns"},
	{"inventory.ledger_ns_per_admit", "ns"},
	{"journal.appends_per_op", "count"},
	{"journal.fsyncs_per_append", "ratio"},
	{"journal.group_commit_share", "ratio"},
	{"journal.bytes_per_append", "B"},
	{"journal.snapshots", "count"},
	{"journal.rotations", "count"},
	{"journal.disk_bytes_end", "B"},
	{"journal.append_us_fsync", "us"},
	{"journal.append_us_nofsync", "us"},
	{"journal.append_us_group", "us"},
	{"journal.fsync_us_by_passes", "us"},
	{"journal.snapshot_ms", "ms"},
	{"journal.replay_ms", "ms"},
	{"obs.metrics_render_ms", "ms"},
	{"slo.report_ms", "ms"},
}
