package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"griphon"
	"griphon/internal/api"
	"griphon/internal/sim"
)

// passKind is one in-process run of the script. Each leaves one thing out, so
// that a layer which cannot be spanned from outside shows as the difference
// between two passes.
type passKind struct {
	name   string
	http   bool // through api.Server over an httptest listener, else straight on the facade
	state  bool // WithStateDir
	fsync  bool // WithFsync
	reason string
}

var (
	passT1 = passKind{"T1 http+api", true, true, true, "client, transport and api handler spans"}
	passT2 = passKind{"T2 facade fsync", false, true, true, "the facade calls the handlers make, journal on disk"}
	passT3 = passKind{"T3 facade no-fsync", false, true, false, "T2 minus fsync"}
	passT4 = passKind{"T4 facade no-journal", false, false, false, "T3 minus commit encoding and journal writes"}
)

// pass is one finished in-process run.
type pass struct {
	tally
	kind      passKind
	tr        *tracer
	tot       spanSums
	wallS     float64
	ops       int // timed requests
	muts      int
	reads     int
	before    promText
	after     promText
	stateDir  string
	handler   http.Handler     // T1 only
	net       *griphon.Network // still open; the caller closes it
	client    *client
	listMs    []float64 // core.list span durations in start order
	auditErrs []string
}

// tracedHandler records an api.handler span around the API's handler, caused
// by the client span named in the request header.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int32(-1)
		if v := r.Header.Get(spanHeader); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				parent = int32(n)
			}
		}
		sp := tr.begin("api.handler", parent)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// runPass builds a network like the daemon's, sets the workload up on it and
// runs one client's script: for window when ops is 0, else for ops requests.
func (h *harness) runPass(w *workload, kind passKind, window time.Duration, ops int) (*pass, error) {
	topo, err := w.topology()
	if err != nil {
		return nil, err
	}
	p := &pass{kind: kind}
	opts := []griphon.Option{griphon.WithSeed(daemonSeed)}
	if kind.state {
		p.stateDir = filepath.Join(h.workDir, fmt.Sprintf("%s-%s", w.name, strings.Fields(kind.name)[0]))
		if err := os.RemoveAll(p.stateDir); err != nil {
			return nil, err
		}
		opts = append(opts, griphon.WithStateDir(p.stateDir))
		if kind.fsync {
			opts = append(opts, griphon.WithFsync())
		}
	}
	if w.shards > 1 {
		opts = append(opts, griphon.WithShards(w.shards))
	}
	if p.net, err = griphon.New(topo, opts...); err != nil {
		return nil, err
	}

	sw := sim.NewStopwatch()
	p.tr = newTracer(kind.name, sw)
	var tgt target
	if kind.http {
		p.handler = api.NewServer(p.net).Handler()
		srv := httptest.NewServer(tracedHandler(p.handler, p.tr))
		defer srv.Close()
		ht := newHTTPTarget(srv.URL, sw, p.tr, shapeOf(topo))
		defer ht.close()
		tgt = ht
	} else {
		tgt = &facadeTarget{net: p.net, sw: sw, tr: p.tr}
	}
	c := newClient(0, tgt, newScript(w, topo.Sites(), h.seed, 0, 1), tenantNames(w.tenants), p.tr)
	p.client = c
	clients := []*client{c}
	if err := setUp(w, topo, clients); err != nil {
		return nil, err
	}
	runPhase(clients, time.Duration(warmShare*float64(window)), int(warmShare*float64(ops)))

	c.resetCounts()
	c.sampling = true
	if p.before, err = scrapeNet(p.net); err != nil {
		return nil, err
	}
	p.tr.on = true
	p.wallS = runPhase(clients, window, ops).Seconds()
	p.tr.on = false
	if p.after, err = scrapeNet(p.net); err != nil {
		return nil, err
	}
	p.ops = c.attempted
	c.verifyLedger()
	for _, f := range p.net.AuditInvariants() {
		p.auditErrs = append(p.auditErrs, fmt.Sprint(f))
	}
	p.tally = collect(clients)
	p.muts, p.reads = len(p.mutMs), len(p.readMs)
	p.tot = p.tr.totals()
	for _, s := range p.tr.spans {
		if s.name == "core.list" {
			p.listMs = append(p.listMs, ms(s.end-s.start))
		}
	}
	return p, nil
}

// scrapeNet renders the in-process network's metrics through the same text
// format and parser as a daemon scrape.
func scrapeNet(net *griphon.Network) (promText, error) {
	var b bytes.Buffer
	if err := net.MetricsTo(&b); err != nil {
		return nil, err
	}
	return parseProm(b.Bytes())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is the growth of a counter family between two scrapes.
func delta(before, after promText, name string, labelHas ...string) float64 {
	return after.sum(name, labelHas...) - before.sum(name, labelHas...)
}

// traced is the per-layer run of one workload: two short daemon runs for the
// daemon's own counters and the outside view of the server lock, four
// in-process passes of one client's script, and the isolated layer drives.
func (h *harness) traced(w *workload) (*result, []*tracer, error) {
	res := &result{Workload: w.name, Correct: true, Metrics: map[string]sample{}}
	m := map[string]float64{}
	check := func(t tally, what string) {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.failed > 0 {
			res.Correct = false
			if res.err == nil {
				res.err = fmt.Errorf("%s: %w", what, t.firstErr)
			}
		}
	}

	part := *h
	part.window = h.stretch

	many, err := part.runDaemon(w, "tc", h.clients, 0)
	if err != nil {
		return nil, nil, err
	}
	check(many.tally, "daemon run")
	one, err := part.runDaemon(w, "t1c", 1, 0)
	if err != nil {
		return nil, nil, err
	}
	check(one.tally, "one-client daemon run")
	daemonCounters(m, many)
	m["api.client_scaling"] = ratio(float64(many.ops)/many.wallS, float64(one.ops)/one.wallS)

	// T1 is time-boxed; T2..T4 then replay exactly as many requests, so
	// that costs which grow with history are equal across the passes.
	t1, err := part.runPass(w, passT1, part.window, h.ops)
	if err != nil {
		return nil, nil, err
	}
	defer t1.close()
	n := t1.ops
	var facade [3]*pass
	for i, kind := range []passKind{passT2, passT3, passT4} {
		if facade[i], err = part.runPass(w, kind, 0, n); err != nil {
			return nil, nil, err
		}
		defer facade[i].close()
	}
	t2, t3, t4 := facade[0], facade[1], facade[2]
	passes := []*pass{t1, t2, t3, t4}
	tracers := make([]*tracer, len(passes))
	for i, p := range passes {
		check(p.tally, p.kind.name)
		tracers[i] = p.tr
		for _, a := range p.auditErrs {
			res.Correct = false
			if res.err == nil {
				res.err = fmt.Errorf("%s: AuditInvariants: %s", p.kind.name, a)
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %d requests in %.2f s (%s)", p.kind.name, p.ops, p.wallS, p.kind.reason))
	}

	m["trace.overhead_share"] = 1 - ratio(float64(t1.ops)/t1.wallS, float64(one.ops)/one.wallS)
	passMetrics(m, t1, t2, t3, t4)
	if err := h.allocMetrics(m, w, t1); err != nil {
		return nil, nil, err
	}
	if err := h.layerMetrics(m, w, t2); err != nil {
		return nil, nil, err
	}
	budget(m, t2)

	for _, spec := range perLayerMetrics {
		v, ok := m[spec.Name]
		if !ok {
			return nil, nil, fmt.Errorf("internal: per-layer metric %s was not computed", spec.Name)
		}
		res.Metrics[spec.Name] = sample{Value: v, Unit: spec.Unit, Min: v, Max: v}
	}
	if len(m) != len(perLayerMetrics) {
		return nil, nil, fmt.Errorf("internal: %d per-layer metrics computed, %d declared", len(m), len(perLayerMetrics))
	}
	return res, tracers, nil
}

// daemonCounters fills the metrics that are ratios of the daemon's own
// counters over the timed phase, plus what only a daemon run shows.
func daemonCounters(m map[string]float64, run *daemonRun) {
	d := func(name string, labelHas ...string) float64 { return delta(run.before, run.after, name, labelHas...) }
	ops := float64(run.ops)
	hits, misses := d("griphon_api_cache_hits_total"), d("griphon_api_cache_misses_total")
	m["api.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.blocked_share"] = ratio(float64(run.blocked), float64(run.connects))
	m["sim.events_per_op"] = ratio(d("griphon_sim_events_total"), ops)
	m["ems.commands_per_op"] = ratio(d("griphon_ems_commands_total"), ops)
	m["ems.retries_per_op"] = ratio(d("griphon_ems_retries_total"), ops)
	setups := d("griphon_setups_total", `outcome="ok"`) + d("griphon_pipe_builds_total")
	m["ems.virt_busy_s_per_setup"] = ratio(d("griphon_ems_busy_seconds_total"), setups)
	m["ems.estab_virt_p50_s"] = percentile(run.estabS, 50)
	_, m["ems.estab_virt_p95_s"] = supportedTail(run.estabS, 95)
	// Percentiles fall back to the highest one that still has ten samples
	// beyond it; a short run has few mutations.
	_, m["http.mut_p95_ms"] = supportedTail(run.mutMs, 95)
	_, m["http.mut_p99_ms"] = supportedTail(run.mutMs, 99)
	appends := d("griphon_journal_appends_total")
	m["journal.appends_per_op"] = ratio(appends, ops)
	m["core.commits_per_op"] = m["journal.appends_per_op"]
	m["journal.fsyncs_per_append"] = ratio(d("griphon_journal_fsyncs_total"), appends)
	m["journal.group_commit_share"] = ratio(d("griphon_journal_group_commits_total"), d("griphon_journal_fsyncs_total"))
	m["journal.bytes_per_append"] = ratio(d("griphon_journal_bytes_total"), appends)
	m["journal.snapshots"] = d("griphon_journal_snapshots_total")
	m["journal.rotations"] = d("griphon_journal_rotations_total")
	m["journal.disk_bytes_end"] = float64(run.diskBytes)
}

// facadeMs is the time the pass spent inside facade calls for requests of the
// given classes: every span but the requests' own roots.
func (p *pass) facadeMs(classes ...int) float64 {
	total := time.Duration(0)
	for name, e := range p.tot {
		if name != "op" {
			for _, class := range classes {
				total += e[class].total
			}
		}
	}
	return ms(total)
}

// commitMs is the time the pass spent inside Connect and Disconnect, the two
// calls that commit. Passes that differ in how they persist are compared on
// it; reads would only add noise.
func (p *pass) commitMs() float64 {
	return ms(p.tot.of("core.connect")[classMut].total + p.tot.of("core.disconnect")[classMut].total)
}

// passMetrics fills what the four in-process passes give: span means, self
// times, and differences between passes.
func passMetrics(m map[string]float64, t1, t2, t3, t4 *pass) {
	transport, handler := t1.tot.of("http.transport"), t1.tot.of("api.handler")
	m["http.transport_ms_per_op"] = ratio(ms(transport[classMut].self+transport[classRead].self), float64(t1.ops))
	m["http.read_p50_ms"] = percentile(t1.readMs, 50)
	_, m["http.read_p99_ms"] = supportedTail(t1.readMs, 99)
	m["api.resp_bytes_per_read"] = ratio(float64(t1.readBytes), float64(t1.reads))

	// The facade's share of a request is what T2 spent inside facade calls
	// for the same request class; the rest of the handler is the api's own:
	// lock, decode, cache, conversion and encoding.
	m["api.handler_ms_per_mut"] = ratio(ms(handler[classMut].total), float64(t1.muts))
	m["api.handler_ms_per_read"] = ratio(ms(handler[classRead].total), float64(t1.reads))
	m["api.self_ms_per_mut"] = m["api.handler_ms_per_mut"] - ratio(t2.facadeMs(classMut), float64(t2.muts))
	m["api.self_ms_per_read"] = m["api.handler_ms_per_read"] - ratio(t2.facadeMs(classRead), float64(t2.reads))

	m["core.connect_ms"] = t2.tot.meanMs("core.connect")
	m["core.disconnect_ms"] = t2.tot.meanMs("core.disconnect")
	m["core.list_ms"] = t2.tot.meanMs("core.list")
	m["core.list_growth"] = 0
	if tenth := len(t2.listMs) / 10; tenth > 0 {
		m["core.list_growth"] = ratio(mean(t2.listMs[len(t2.listMs)-tenth:]), mean(t2.listMs[:tenth]))
	}
	commits := delta(t3.before, t3.after, "griphon_journal_appends_total")
	m["core.persist_ms_per_commit"] = ratio(t3.commitMs()-t4.commitMs(), commits)
	m["journal.fsync_us_by_passes"] = ratio((t2.commitMs()-t3.commitMs())*1000, delta(t2.before, t2.after, "griphon_journal_fsyncs_total"))
}

// allocMetrics replays a stretch of the script straight into T1's handler on
// this goroutine, counting heap allocations inside ServeHTTP per class.
func (h *harness) allocMetrics(m map[string]float64, w *workload, t1 *pass) error {
	c := t1.client
	ht := c.tgt.(*httpTarget)
	ht.direct = t1.handler
	c.sampling = false
	failed := c.failed
	runPhase([]*client{c}, 0, min(200, max(t1.ops, 20)))
	if c.failed != failed {
		return fmt.Errorf("%s: allocation replay: %w", w.name, c.firstErr)
	}
	m["api.allocs_per_mut"] = ratio(float64(ht.mallocs[classMut]), float64(ht.calls[classMut]))
	m["api.allocs_per_read"] = ratio(float64(ht.mallocs[classRead]), float64(ht.calls[classRead]))
	return nil
}

// budget compares the sum of isolated layer costs, each times how often the
// layer runs per request, with what a request costs on the facade in T2.
func budget(m map[string]float64, t2 *pass) {
	d := func(name string, labelHas ...string) float64 { return delta(t2.before, t2.after, name, labelHas...) }
	searches := d("griphon_setups_total", `layer="dwdm"`) + d("griphon_pipe_builds_total") + d("griphon_blocked_total", `reason="route"`)
	explained := d("griphon_journal_appends_total")*m["journal.append_us_fsync"]/1000 +
		d("griphon_journal_snapshots_total")*m["journal.snapshot_ms"] +
		d("griphon_sim_events_total")*m["sim.ns_per_event"]/1e6 +
		searches*m["rwa.findroute_us"]/1000 +
		// One ledger admission per connect is certain; how many transaction
		// steps a connect takes cannot be counted from outside, so they
		// stay in the unattributed remainder.
		float64(t2.connects)*m["inventory.ledger_ns_per_admit"]/1e6 +
		float64(t2.tot.count("core.list"))*m["core.list_ms"] +
		float64(t2.tot.count("slo.report"))*m["slo.report_ms"]
	spent := t2.facadeMs(classMut, classRead)
	m["budget.explained_share"] = ratio(explained, spent)
	m["core.unattributed_ms_per_op"] = ratio(spent-explained, float64(t2.ops))
}
