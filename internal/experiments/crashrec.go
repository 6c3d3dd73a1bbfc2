package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/faults"
	"griphon/internal/journal"
	"griphon/internal/metrics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// crashSegmentSize keeps WAL segments tiny so the workload rotates many
// times and the cut space includes plenty of segment boundaries — the
// mid-rotation kill points.
const crashSegmentSize = 1024

// crashArchiveSeq is the sequence number at which the soak photographs the
// live WAL directory; segments compacted away after that point are re-added
// in the mid-compaction trials.
const crashArchiveSeq = 60

// CrashRec is the crash-recovery soak: a journaled controller runs the chaos
// workload under the EMS fault model while a shadow copy of the durable state
// is captured at every WAL sequence point; then the segmented WAL — treated
// as one logical byte stream — is cut at random offsets and at every segment
// boundary (a crash mid-rotation), and covered segments a crashed compactor
// would have left behind are re-injected. Recovery must (a) discard the torn
// tail whole, (b) rehydrate to a state that passes the invariant audit, and
// (c) land byte-identically on the shadow captured at the surviving sequence
// number. A single half-applied operation anywhere breaks (c); a leaked
// resource breaks (b).
func CrashRec(seed int64) (Result, error) { return CrashRecN(seed, 25) }

// walPart is one WAL file's contribution to the logical byte stream.
type walPart struct {
	name string
	data []byte
}

// CrashRecN runs the soak with a configurable number of random-cut trials
// (boundary and compaction trials ride on top).
func CrashRecN(seed int64, trials int) (Result, error) {
	res := Result{ID: "crashrec", Paper: "§2.2 extension: WAL crash injection with shadow-state diff"}
	dir, err := os.MkdirTemp("", "griphon-crashrec-*")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)

	liveDir := filepath.Join(dir, "live")
	store, err := journal.Open(liveDir, journal.Options{SegmentSize: crashSegmentSize})
	if err != nil {
		return Result{}, err
	}
	k := sim.NewKernel(seed)
	prof := faults.DefaultProfile()
	ctrl, err := core.New(k, topo.Testbed(), core.Config{
		AutoRepair:    true,
		Faults:        &prof,
		Journal:       store,
		SnapshotEvery: 24,
	})
	if err != nil {
		return Result{}, err
	}

	// Shadow every committed state: at each journal write the live
	// controller's serialized state is the ground truth for that sequence
	// number. shadows[0] is the empty pre-workload state. At crashArchiveSeq
	// the WAL directory is photographed for the mid-compaction trials.
	shadows := map[uint64][]byte{}
	empty, err := core.ReplayDurable(nil, nil)
	if err != nil {
		return Result{}, err
	}
	shadows[0] = empty
	archive := map[string][]byte{}
	var hookErr error
	store.SetOnAppend(func(e journal.Entry) {
		st, err := ctrl.DurableState()
		if err != nil && hookErr == nil {
			hookErr = err
		}
		shadows[e.Seq] = st
		if e.Seq == crashArchiveSeq {
			paths, err := journal.WALFiles(liveDir)
			if err != nil {
				return
			}
			for _, p := range paths {
				// A racing compactor may unlink files mid-listing; whatever
				// survives the read is the photograph.
				if b, err := os.ReadFile(p); err == nil {
					archive[filepath.Base(p)] = b
				}
			}
		}
	})

	steps := crashWorkload(k, ctrl)
	// Deliberately no final drain: the crash lands mid-workload, with
	// setups, teardowns and repairs still in flight.
	if hookErr != nil {
		return Result{}, hookErr
	}
	if err := store.Close(); err != nil {
		return Result{}, err
	}

	paths, err := journal.WALFiles(liveDir)
	if err != nil {
		return Result{}, err
	}
	var parts []walPart
	total := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return Result{}, err
		}
		parts = append(parts, walPart{name: filepath.Base(p), data: b})
		total += len(b)
	}
	snap, _ := os.ReadFile(filepath.Join(liveDir, "snapshot.db")) //lint:allow errcheck may not exist

	// makeTrialDir lays out a crash at byte offset cut of the logical stream:
	// files wholly below the cut survive intact, the file holding the cut is
	// torn there, and files after it never existed yet. Padded, the torn file
	// also keeps zeros after the cut, the way a store opened with
	// journal.Options.Fsync leaves its active segment zero-filled ahead of
	// the writer (or a sealed one whose trim the crash lost).
	makeTrialDir := func(trialDir string, cut int, padded bool) error {
		if err := os.MkdirAll(trialDir, 0o755); err != nil {
			return err
		}
		if snap != nil {
			if err := os.WriteFile(filepath.Join(trialDir, "snapshot.db"), snap, 0o644); err != nil {
				return err
			}
		}
		rem := cut
		for _, p := range parts {
			if rem <= 0 {
				break
			}
			n := len(p.data)
			if rem < n {
				n = rem
			}
			data := p.data[:n]
			if padded && rem == n {
				data = append(data[:n:n], make([]byte, crashSegmentSize-n%crashSegmentSize)...)
			}
			if err := os.WriteFile(filepath.Join(trialDir, p.name), data, 0o644); err != nil {
				return err
			}
			rem -= n
		}
		return nil
	}

	// Cut points: the requested number of random offsets, plus every segment
	// boundary — a crash landing exactly between sealing one segment and
	// writing the first frame of the next.
	rng := sim.NewRand(seed*7 + 13)
	cuts := make([]int, 0, trials+len(parts))
	for trial := 0; trial < trials; trial++ {
		cuts = append(cuts, rng.Intn(total+1))
	}
	boundary := 0
	for _, p := range parts {
		boundary += len(p.data)
		cuts = append(cuts, boundary)
	}

	// recoverTrial opens a crash layout, replays and rehydrates it, and
	// checks both against the shadow at the surviving sequence number. It
	// returns that number and the torn bytes discarded, or a finding.
	recoverTrial := func(trialDir string, trial int) (seq uint64, torn int64, finding string) {
		tstore, err := journal.Open(trialDir, journal.Options{SegmentSize: crashSegmentSize})
		if err != nil {
			return 0, 0, fmt.Sprintf("reopen failed: %v", err)
		}
		defer tstore.Close()
		seq, torn = tstore.Seq(), tstore.Stats().TornBytes
		want, ok := shadows[seq]
		if !ok {
			return seq, torn, fmt.Sprintf("recovered seq %d has no shadow", seq)
		}
		replayed, err := core.ReplayDurable(tstore.Recovered())
		if err != nil {
			return seq, torn, fmt.Sprintf("replay failed: %v", err)
		}
		if !bytes.Equal(replayed, want) {
			return seq, torn, fmt.Sprintf("replay of seq %d diverges from shadow", seq)
		}
		k2 := sim.NewKernel(seed + int64(trial) + 1000)
		ctrl2, err := core.Rehydrate(k2, topo.Testbed(), core.Config{
			AutoRepair: true, Journal: tstore, SnapshotEvery: 24,
		})
		if err != nil {
			// Rehydrate audits the rebuilt state internally; a failure here is
			// a recovery that leaked or double-booked resources.
			return seq, torn, fmt.Sprintf("rehydrate seq %d: %v", seq, err)
		}
		got, err := ctrl2.DurableState()
		if err != nil {
			return seq, torn, fmt.Sprintf("rehydrated state at seq %d: %v", seq, err)
		}
		if !bytes.Equal(got, want) {
			return seq, torn, fmt.Sprintf("rehydrated state at seq %d diverges from shadow", seq)
		}
		return seq, torn, ""
	}

	// Every cut is laid out bare and zero-padded. The zeros are a clean end:
	// the padded layout must recover the same sequence number, and count torn
	// bytes exactly when the bare one does — when a partial frame survives.
	findings := 0
	tornTotal := int64(0)
	minSeq, maxSeq := uint64(1<<63), uint64(0)
	for trial, cut := range cuts {
		trialDir := filepath.Join(dir, fmt.Sprintf("trial%d", trial))
		if err := makeTrialDir(trialDir, cut, false); err != nil {
			return Result{}, err
		}
		seq, torn, finding := recoverTrial(trialDir, trial)
		if finding != "" {
			findings++
			res.notef("trial %d (cut %d): %s", trial, cut, finding)
			continue
		}
		tornTotal += torn
		minSeq, maxSeq = min(minSeq, seq), max(maxSeq, seq)

		if err := makeTrialDir(trialDir+"-padded", cut, true); err != nil {
			return Result{}, err
		}
		pseq, ptorn, finding := recoverTrial(trialDir+"-padded", trial)
		if finding == "" && (pseq != seq || (ptorn > 0) != (torn > 0)) {
			finding = fmt.Sprintf("recovered seq %d with %d torn bytes, bare %d with %d", pseq, ptorn, seq, torn)
		}
		if finding != "" {
			findings++
			res.notef("trial %d (cut %d, zero-padded): %s", trial, cut, finding)
		}
	}

	// Mid-compaction kill points: the final snapshot and WAL tail, plus the
	// covered segments a crashed compactor had not yet unlinked (recovered
	// from the archive photograph). Open must skip every covered frame,
	// finish the compaction, and land on the same state.
	finalNames := map[string]bool{}
	for _, p := range parts {
		finalNames[p.name] = true
	}
	compactTrials, staleSegs := 0, 0
	if len(archive) > 0 {
		trialDir := filepath.Join(dir, "compaction")
		if err := makeTrialDir(trialDir, total, false); err != nil {
			return Result{}, err
		}
		for name, b := range archive {
			if finalNames[name] {
				continue // still live at crash; the cut layout already has it
			}
			staleSegs++
			if err := os.WriteFile(filepath.Join(trialDir, name), b, 0o644); err != nil {
				return Result{}, err
			}
		}
		compactTrials = 1
		tstore, err := journal.Open(trialDir, journal.Options{SegmentSize: crashSegmentSize})
		if err != nil {
			findings++
			res.notef("compaction trial: reopen failed: %v", err)
		} else {
			seq := tstore.Seq()
			replayed, rerr := core.ReplayDurable(tstore.Recovered())
			switch {
			case rerr != nil:
				findings++
				res.notef("compaction trial: replay failed: %v", rerr)
			case !bytes.Equal(replayed, shadows[seq]):
				findings++
				res.notef("compaction trial: replay of seq %d diverges from shadow (%d stale segments present)", seq, staleSegs)
			default:
				tstore.CompactWait()
				left, lerr := journal.WALFiles(trialDir)
				if lerr == nil && len(left) > len(parts) {
					findings++
					res.notef("compaction trial: %d stale segments survived recovery", len(left)-len(parts))
				}
			}
			tstore.Close()
		}
	}

	tb := metrics.NewTable("Crash injection: random WAL truncation, recover, audit, diff",
		"Quantity", "Value")
	tb.Row("workload operations", float64(steps))
	tb.Row("commits journaled", float64(len(shadows)-1))
	tb.Row("WAL bytes at crash", float64(total))
	tb.Row("WAL segments at crash", float64(len(parts)))
	tb.Row("random truncation trials", float64(trials))
	tb.Row("segment-boundary trials", float64(len(parts)))
	tb.Row("mid-compaction trials", float64(compactTrials))
	tb.Row("stale segments re-injected", float64(staleSegs))
	tb.Row("torn bytes discarded", float64(tornTotal))
	tb.Row("lowest surviving seq", float64(minSeq))
	tb.Row("highest surviving seq", float64(maxSeq))
	tb.Row("findings", float64(findings))
	res.Tables = append(res.Tables, tb)

	allTrials := len(cuts) + compactTrials
	res.value("ops", float64(steps))
	res.value("commits", float64(len(shadows)-1))
	res.value("trials", float64(allTrials))
	res.value("segments", float64(len(parts)))
	res.value("torn_bytes", float64(tornTotal))
	res.value("findings", float64(findings))
	if findings == 0 {
		res.notef("%d kill points recovered exactly (%d random, %d segment-boundary, %d mid-compaction; each cut laid out bare and zero-padded): every torn tail discarded whole, every zero tail read as a clean end, every recovery audit-clean and byte-identical to its shadow", allTrials, trials, len(parts), compactTrials)
	} else {
		res.notef("RECOVERY FAILURES: %d of %d trials — see notes above", findings, allTrials)
	}
	return res, nil
}

// crashWorkload drives the chaos operation mix against a journaled controller
// and returns the number of steps taken.
func crashWorkload(k *sim.Kernel, ctrl *core.Controller) int {
	const steps = 120
	rng := k.Rand()
	sites := []topo.SiteID{"DC-A", "DC-B", "DC-C"}
	rates := []bw.Rate{bw.Rate1G, bw.Rate2G5, bw.Rate10G}
	protects := []core.Protection{core.Restore, core.Unprotected, core.OnePlusOne, core.Restore}
	var live []*core.Connection
	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				break
			}
			rate := rates[rng.Intn(len(rates))]
			p := protects[rng.Intn(len(protects))]
			if rate < bw.Rate10G && p == core.OnePlusOne {
				p = core.Restore
			}
			conn, _, err := ctrl.Connect(core.Request{Customer: "crash", From: a, To: b, Rate: rate, Protect: p})
			if err == nil {
				live = append(live, conn)
			}
		case 3, 4:
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			conn := live[i]
			if conn.State == core.StateActive || conn.State == core.StateDown {
				ctrl.Disconnect("crash", conn.ID) //lint:allow errcheck may race with teardown
			}
			live = append(live[:i], live[i+1:]...)
		case 5:
			for _, conn := range live {
				if conn.Layer == core.LayerOTN && conn.State == core.StateActive {
					ctrl.AdjustRate("crash", conn.ID, rates[rng.Intn(2)]) //lint:allow errcheck may be blocked
					break
				}
			}
		case 6:
			links := ctrl.Graph().Links()
			l := links[rng.Intn(len(links))]
			if ctrl.Plant().LinkUp(l.ID) {
				ctrl.CutFiber(l.ID) //lint:allow errcheck verified up
			}
		case 7:
			for _, conn := range live {
				if conn.Layer == core.LayerDWDM && conn.State == core.StateActive && conn.Protect != core.OnePlusOne {
					ctrl.BridgeAndRoll("crash", conn.ID, nil) //lint:allow errcheck may lack disjoint path
					break
				}
			}
		case 8:
			if rng.Intn(2) == 0 {
				ctrl.DefragmentSpectrum()
			} else {
				ctrl.ReclaimIdlePipes()
			}
		case 9:
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				break
			}
			at := k.Now().Add(time.Duration(rng.Intn(90)) * time.Minute)
			hold := time.Duration(1+rng.Intn(120)) * time.Minute
			ctrl.ScheduleConnect(core.Request{Customer: "crash", From: a, To: b, Rate: rates[rng.Intn(len(rates))]}, at, hold) //lint:allow errcheck may be blocked
		case 10, 11:
			k.RunFor(time.Duration(rng.Intn(100)) * time.Minute)
		}
	}
	return steps
}
