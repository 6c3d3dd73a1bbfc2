package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"griphon"
	"griphon/internal/sim"
)

// harness is what every run of one invocation shares.
type harness struct {
	workDir   string // state dirs, daemon logs and the daemon binary; inside the checkout
	daemonBin string
	seed      int64
	clients   int
	// window is the timed length of one repeat. When ops > 0 a repeat runs
	// that many requests instead, however long they take.
	window time.Duration
	ops    int
	// stretch is the length of each of the traced run's six timed stretches.
	stretch time.Duration
	// restarts is how often each end-to-end daemon is killed and brought
	// back on its state dir.
	restarts int
	env      environment
}

// warmShare of a run is executed before sampling starts.
const warmShare = 0.05

// probeSink keeps the compiler from removing hostProbeMs's loop.
var probeSink uint64

// hostProbeMs times a fixed arithmetic loop (about 3 ms here). It measures
// nothing of griphond: it is printed beside each result so that a reader can
// tell a slow minute of the host from a slower daemon. On this kind of shared
// two-CPU host the same loop varies by half from one minute to the next.
func hostProbeMs() float64 {
	sw := sim.NewStopwatch()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return ms(sw.Elapsed())
}

// runPhase drives every client until the deadline passes or its op budget is
// spent, and returns the wall time from the first request to the last reply.
func runPhase(clients []*client, dur time.Duration, opsEach int) time.Duration {
	sw := sim.NewStopwatch()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			start := c.attempted
			for {
				if opsEach > 0 && c.attempted-start >= opsEach {
					return
				}
				if opsEach == 0 && sw.Elapsed() >= dur {
					return
				}
				if c.attempted >= c.script.w.maxOps/len(clients) {
					return
				}
				c.do(c.script.next())
			}
		}(c)
	}
	wg.Wait()
	return sw.Elapsed()
}

// runOps drives every client through a fixed list of ops.
func runOps(clients []*client, ops [][]op) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			for _, o := range ops {
				c.do(o)
			}
		}(c, ops[i])
	}
	wg.Wait()
}

// setUp puts the workload's starting state in place through fresh clients:
// the primed overlay, the history, the live circuits, and each client's events
// cursor, as a portal that has just opened would have it.
func setUp(w *workload, topo *griphon.Topology, clients []*client) error {
	sites := topo.Sites()
	if w.primed {
		probe, err := griphon.New(topo, griphon.WithShards(w.shards))
		if err != nil {
			return err
		}
		c := clients[0]
		prime, err := primeScript(w, sites, c.script.tenants, func(t int) int { return probe.ShardFor(c.names[t]) })
		if err != nil {
			return err
		}
		runOps(clients[:1], [][]op{prime})
	}
	pre := make([][]op, len(clients))
	for i, c := range clients {
		pre[i] = append(preloadScript(c.script, sites), op{kind: opGet, get: getEvents, tenant: c.script.tenants[0]})
	}
	runOps(clients, pre)
	for _, c := range clients {
		c.resetCounts()
	}
	return nil
}

// tally is the sum of the clients' counters and samples.
type tally struct {
	attempted, failed, connects, blocked int
	mutMs, readMs, estabS                []float64
	readBytes                            int
	firstErr                             error
}

func collect(clients []*client) tally {
	var t tally
	for _, c := range clients {
		t.attempted += c.attempted
		t.failed += c.failed
		t.connects += c.connects
		t.blocked += c.blocked
		t.mutMs = append(t.mutMs, c.mutMs...)
		t.readMs = append(t.readMs, c.readMs...)
		t.estabS = append(t.estabS, c.estabS...)
		t.readBytes += c.readBytes
		if t.firstErr == nil {
			t.firstErr = c.firstErr
		}
	}
	sort.Float64s(t.mutMs)
	sort.Float64s(t.readMs)
	sort.Float64s(t.estabS)
	return t
}

// daemonRun is one spawn of griphond driven through one workload.
type daemonRun struct {
	tally
	setupS    float64 // spawn to preload finished
	wallS     float64 // timed phase
	ops       int     // requests in the timed phase
	cpuS      float64 // daemon user+sys CPU over the timed phase
	rssPeakMB float64
	recoverS  []float64 // SIGKILL restarts: spawn to first 200
	before    promText  // scrapes around the timed phase
	after     promText
	diskBytes int64
	listings  int     // GET connections replies held against the ledger after the run and after restarts
	probeMs   float64 // hostProbeMs, mean of a reading before and one after the timed phase
}

// scrape fetches and parses the daemon's /api/v1/metrics.
func scrape(base string) (promText, error) {
	resp, err := http.Get(base + "/api/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(b)
}

// runDaemon spawns a fresh daemon, sets it up, times the workload on it with
// nClients closed-loop clients, checks every client's ledger, then kills and
// restarts it on the same state dir `restarts` times. Failed requests are
// counted in the result; an error means the harness itself could not go on.
func (h *harness) runDaemon(w *workload, tag string, nClients, restarts int) (*daemonRun, error) {
	topo, err := w.topology()
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(h.workDir, fmt.Sprintf("%s-%s", w.name, tag))
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}

	run := &daemonRun{}
	sw := sim.NewStopwatch()
	d, err := spawnDaemon(h.daemonBin, w, stateDir, port)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()

	names := tenantNames(w.tenants)
	shape := shapeOf(topo)
	clients := make([]*client, nClients)
	targets := make([]*httpTarget, nClients)
	for i := range clients {
		targets[i] = newHTTPTarget(d.base, sw, nil, shape)
		defer targets[i].close()
		clients[i] = newClient(i, targets[i], newScript(w, topo.Sites(), h.seed, i, nClients), names, nil)
	}
	if err := setUp(w, topo, clients); err != nil {
		return nil, err
	}
	run.setupS = sw.Elapsed().Seconds()

	opsEach := 0
	if h.ops > 0 {
		opsEach = h.ops / nClients
	}
	runPhase(clients, time.Duration(warmShare*float64(h.window)), int(warmShare*float64(opsEach)))
	for _, c := range clients {
		c.resetCounts()
		c.sampling = true
	}

	if run.before, err = scrape(d.base); err != nil {
		return nil, err
	}
	probe := hostProbeMs()
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	wall := runPhase(clients, h.window, opsEach)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run.probeMs = (probe + hostProbeMs()) / 2
	if run.after, err = scrape(d.base); err != nil {
		return nil, err
	}
	if run.rssPeakMB, err = d.rssPeakMB(); err != nil {
		return nil, err
	}
	run.wallS, run.cpuS = wall.Seconds(), cpu1-cpu0
	for _, c := range clients {
		run.ops += c.attempted
	}

	verify := func() {
		for _, c := range clients {
			run.listings += c.verifyLedger()
		}
	}
	verify()
	if !d.alive() {
		return nil, fmt.Errorf("%s: griphond died during the run; see %s", w.name, d.log.Name())
	}
	d.kill()
	if run.diskBytes, err = dirBytes(stateDir); err != nil {
		return nil, err
	}
	for i := 0; i < restarts; i++ {
		for _, t := range targets {
			t.close()
		}
		rsw := sim.NewStopwatch()
		again, err := spawnDaemon(h.daemonBin, w, stateDir, port)
		if err != nil {
			return nil, fmt.Errorf("%s: restart %d after SIGKILL: %w", w.name, i+1, err)
		}
		d = again
		run.recoverS = append(run.recoverS, rsw.Elapsed().Seconds())
		verify()
		d.kill()
	}
	run.tally = collect(clients)
	run.tally.attempted = run.ops // ledger listings are checks, not load
	return run, nil
}

// sample is one reported number with the spread behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Min and Max are over the repeats Value is the median of.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// N is how many latency samples a percentile rests on, pooled over the
	// repeats; 0 for other metrics.
	N int `json:"n,omitempty"`
}

// over summarizes one value per repeat.
func over(unit string, v []float64) sample {
	return sample{Value: median(v), Unit: unit, Min: slices.Min(v), Max: slices.Max(v)}
}

// result is what one workload in one mode produced.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	// HostProbeMs is the median over the repeats of hostProbeMs: how fast
	// the host was, not the daemon. Only end-to-end results carry it.
	HostProbeMs float64  `json:"host_probe_ms,omitempty"`
	Notes       []string `json:"notes,omitempty"`
	err         error
}

// endToEnd runs `repeats` fresh daemons through the workload with tracing off
// and reports the median of each metric over them.
func (h *harness) endToEnd(w *workload, repeats int) (*result, error) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	res := &result{Workload: w.name, Correct: true, Metrics: map[string]sample{}}
	// Latencies and restart times are pooled over the repeats: a percentile
	// then rests on every sample taken, and recover_s on every restart.
	var mutMs, recoverS []float64
	for rep := 0; rep < repeats; rep++ {
		run, err := h.runDaemon(w, fmt.Sprintf("r%d", rep), h.clients, h.restarts)
		if err != nil {
			return nil, err
		}
		res.Attempted += run.attempted
		res.Failed += run.failed
		if run.failed > 0 {
			res.Correct = false
			if res.err == nil {
				res.err = run.firstErr
			}
		}
		add("setup_s", run.setupS)
		add("ops_per_s", float64(run.ops)/run.wallS)
		mutMs = append(mutMs, run.mutMs...)
		add("daemon_cpu_ms_per_op", run.cpuS*1000/float64(run.ops))
		add("daemon_rss_peak_mb", run.rssPeakMB)
		recoverS = append(recoverS, run.recoverS...)
		add("host probe", run.probeMs)
		res.Notes = append(res.Notes, fmt.Sprintf("repeat %d: %d requests in %.2f s, %d connects, %d refused as expected, %d listings held against the ledger, host probe %.2f ms",
			rep, run.ops, run.wallS, run.connects, run.blocked, run.listings, run.probeMs))
	}
	res.HostProbeMs = median(per["host probe"])
	sort.Float64s(mutMs)
	for _, m := range endToEndMetrics {
		switch m.Name {
		case "mut_p50_ms":
			v := percentile(mutMs, 50)
			res.Metrics[m.Name] = sample{Value: v, Unit: m.Unit, Min: v, Max: v, N: len(mutMs)}
		case "recover_s":
			res.Metrics[m.Name] = over(m.Unit, recoverS)
		default:
			res.Metrics[m.Name] = over(m.Unit, per[m.Name])
		}
	}
	return res, nil
}
