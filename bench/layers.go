package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"griphon"
	"griphon/internal/bw"
	"griphon/internal/inventory"
	"griphon/internal/journal"
	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Iteration counts of the isolated drives. Under -smoke they shrink by
// smokeShrink; the numbers then only prove the drive runs.
const (
	rwaRounds      = 40
	inventoryIters = 200000
	simTimers      = 1000000
	fsyncAppends   = 300
	plainAppends   = 20000
	snapshotWrites = 5
	renderCalls    = 20
	smokeShrink    = 20
)

func (h *harness) iters(n int) int {
	if h.ops > 0 {
		return max(n/smokeShrink, 1)
	}
	return n
}

// timeIt returns the mean duration of fn over n calls, in nanoseconds.
func timeIt(n int, fn func()) float64 {
	sw := sim.NewStopwatch()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(sw.Elapsed()) / float64(n)
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

func (p *pass) close() error {
	if p.net == nil {
		return nil
	}
	net := p.net
	p.net = nil
	return net.Close()
}

// layerMetrics drives each layer alone, on inputs taken from the T2 pass: the
// script's site pairs on the workload's topology, T2's mean journal record
// size and final snapshot size, and copies of T2's state dir. It closes T2.
func (h *harness) layerMetrics(m map[string]float64, w *workload, t2 *pass) error {
	m["obs.metrics_render_ms"] = timeIt(h.iters(renderCalls), func() {
		t2.net.MetricsTo(io.Discard) //lint:allow errcheck io.Discard never errors
	}) / float64(time.Millisecond)
	m["slo.report_ms"] = timeIt(h.iters(renderCalls), func() { t2.net.SLA(t2.client.names[0]) }) / float64(time.Millisecond)

	snapBytes := 0
	for _, sh := range t2.net.ShardSet().Shards() {
		blob, err := sh.Ctrl.DurableState()
		if err != nil {
			return err
		}
		snapBytes = max(snapBytes, len(blob))
	}
	recBytes := int(ratio(delta(t2.before, t2.after, "griphon_journal_bytes_total"),
		delta(t2.before, t2.after, "griphon_journal_appends_total")))
	if recBytes == 0 {
		return fmt.Errorf("%s: T2 journaled nothing; no record size to drive the journal with", w.name)
	}
	if err := t2.close(); err != nil {
		return err
	}

	if err := h.journalMetrics(m, w, recBytes, snapBytes); err != nil {
		return err
	}
	if err := h.recoveryMetrics(m, w, t2.stateDir); err != nil {
		return err
	}
	if err := h.rwaMetrics(m, w, t2.client.script.pairs); err != nil {
		return err
	}
	inventoryMetrics(m, h.iters(inventoryIters))
	m["sim.ns_per_event"] = simNsPerEvent(h.iters(simTimers))
	return nil
}

// journalMetrics appends records of T2's mean size to fresh stores: alone with
// and without fsync, then from as many writers as the bench has clients, and
// writes snapshots of T2's final snapshot size.
func (h *harness) journalMetrics(m map[string]float64, w *workload, recBytes, snapBytes int) error {
	payload := bytes.Repeat([]byte{'x'}, recBytes)
	appendUs := func(tag string, fsync bool, writers, total int) (float64, error) {
		dir := filepath.Join(h.workDir, w.name+"-journal-"+tag)
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		st, err := journal.Open(dir, journal.Options{Fsync: fsync})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		per := max(total/writers, 1)
		errs := make([]error, writers)
		var wg sync.WaitGroup
		sw := sim.NewStopwatch()
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < per; n++ {
					if _, err := st.Append("commit", payload); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		took := sw.Elapsed()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(took) / float64(time.Microsecond) / float64(per*writers), st.Close()
	}
	var err error
	if m["journal.append_us_fsync"], err = appendUs("fsync", true, 1, h.iters(fsyncAppends)); err != nil {
		return err
	}
	if m["journal.append_us_nofsync"], err = appendUs("plain", false, 1, h.iters(plainAppends)); err != nil {
		return err
	}
	if m["journal.append_us_group"], err = appendUs("group", true, h.clients, h.iters(fsyncAppends)*h.clients); err != nil {
		return err
	}

	dir := filepath.Join(h.workDir, w.name+"-journal-snap")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := journal.Open(dir, journal.Options{Fsync: true})
	if err != nil {
		return err
	}
	defer st.Close()
	blob := bytes.Repeat([]byte{'x'}, snapBytes)
	var snapErr error
	took := timeIt(h.iters(snapshotWrites), func() {
		if err := st.WriteSnapshot(blob); err != nil {
			snapErr = err
		}
	})
	m["journal.snapshot_ms"] = took / float64(time.Millisecond)
	return snapErr
}

// recoveryMetrics times what a restart does with T2's state dir: replaying
// the journal alone, then rebuilding the whole network from it.
func (h *harness) recoveryMetrics(m map[string]float64, w *workload, stateDir string) error {
	replayDir := filepath.Join(h.workDir, w.name+"-replay")
	rehydrateDir := filepath.Join(h.workDir, w.name+"-rehydrate")
	for _, dst := range []string{replayDir, rehydrateDir} {
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := copyDir(dst, stateDir); err != nil {
			return err
		}
	}

	dirs := []string{replayDir}
	if w.shards > 1 {
		dirs = dirs[:0]
		for i := 0; i < w.shards; i++ {
			dirs = append(dirs, filepath.Join(replayDir, fmt.Sprintf("shard-%d", i)))
		}
	}
	sw := sim.NewStopwatch()
	for _, dir := range dirs {
		st, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return fmt.Errorf("replaying %s: %w", dir, err)
		}
		if !st.HasState() {
			st.Close()
			return fmt.Errorf("replaying %s: T2 left no state there", dir)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	m["journal.replay_ms"] = ms(sw.Elapsed())

	t, err := w.topology()
	if err != nil {
		return err
	}
	opts := []griphon.Option{griphon.WithSeed(daemonSeed), griphon.WithStateDir(rehydrateDir), griphon.WithFsync()}
	if w.shards > 1 {
		opts = append(opts, griphon.WithShards(w.shards))
	}
	sw = sim.NewStopwatch()
	net, err := griphon.New(t, opts...)
	if err != nil {
		return fmt.Errorf("rehydrating T2's state: %w", err)
	}
	m["core.rehydrate_ms"] = ms(sw.Elapsed())
	return net.Close()
}

// graph builds the topology the way internal/topo does for the daemon.
func (w *workload) graph() (*topo.Graph, error) {
	if w.topo == "continental" {
		return topo.Continental(w.pops, w.sites, daemonSeed)
	}
	return topo.Backbone(), nil
}

// rwaMetrics runs the three path searches over the script's site pairs on an
// empty plant of the workload's topology.
func (h *harness) rwaMetrics(m map[string]float64, w *workload, pairs [][2]string) error {
	g, err := w.graph()
	if err != nil {
		return err
	}
	plant, err := optics.NewPlant(g, optics.DefaultConfig())
	if err != nil {
		return err
	}
	home := map[string]topo.NodeID{}
	for _, s := range g.Sites() {
		home[string(s.ID)] = s.Home
	}
	type search struct {
		metric string
		fn     func(src, dst topo.NodeID) error
	}
	searches := []search{
		{"rwa.findroute_us", func(a, b topo.NodeID) error {
			_, err := rwa.FindRoute(plant, a, b, rwa.Options{Rate: bw.Rate10G})
			return err
		}},
		{"rwa.kshortest_us", func(a, b topo.NodeID) error {
			_, err := rwa.KShortest(g, a, b, 4, rwa.ByHops, rwa.Constraints{})
			return err
		}},
		{"rwa.disjointpair_us", func(a, b topo.NodeID) error {
			// Some pairs have no disjoint path pair; the search still
			// runs to the end, and its cost is what is measured.
			rwa.DisjointPair(g, a, b, 4, rwa.ByHops, rwa.Constraints{}) //lint:allow errcheck no-pair is an expected outcome
			return nil
		}},
	}
	rounds := h.iters(rwaRounds)
	for i, s := range searches {
		var m0, m1 runtime.MemStats
		if i == 0 {
			runtime.ReadMemStats(&m0)
		}
		sw := sim.NewStopwatch()
		for r := 0; r < rounds; r++ {
			for _, p := range pairs {
				if err := s.fn(home[p[0]], home[p[1]]); err != nil {
					return fmt.Errorf("%s %s>%s: %w", s.metric, p[0], p[1], err)
				}
			}
		}
		calls := float64(rounds * len(pairs))
		m[s.metric] = float64(sw.Elapsed()) / float64(time.Microsecond) / calls
		if i == 0 {
			runtime.ReadMemStats(&m1)
			m["rwa.allocs_per_findroute"] = float64(m1.Mallocs-m0.Mallocs) / calls
		}
	}
	return nil
}

// inventoryMetrics times a four-step transaction and an admit/discharge pair.
func inventoryMetrics(m map[string]float64, n int) {
	const steps = 4
	noop := func() error { return nil }
	undo := func() {}
	took := timeIt(n, func() {
		txn := inventory.NewTxn()
		for i := 0; i < steps; i++ {
			txn.Do(noop, undo) //lint:allow errcheck noop never fails
		}
		txn.Commit()
	})
	m["inventory.txn_ns_per_step"] = took / steps

	ledger := inventory.NewLedger()
	took = timeIt(n, func() {
		ledger.Admit("tenant", bw.Rate1G)     //lint:allow errcheck no quota is set, so admission cannot fail
		ledger.Discharge("tenant", bw.Rate1G) //lint:allow errcheck discharges the admit above
	})
	m["inventory.ledger_ns_per_admit"] = took
}

// simNsPerEvent schedules n timers at distinct virtual times on a fresh kernel
// and runs them.
func simNsPerEvent(n int) float64 {
	k := sim.NewKernel(daemonSeed)
	fired := 0
	sw := sim.NewStopwatch()
	for i := 0; i < n; i++ {
		k.After(sim.Duration(i%1000)*time.Millisecond, func() { fired++ })
	}
	k.Run()
	return float64(sw.Elapsed()) / float64(max(fired, 1))
}
