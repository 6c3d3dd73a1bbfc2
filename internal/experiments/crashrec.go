package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"griphon/internal/core"
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
const crashArchiveSeq = crashSnapshotEvery / 2

// crashSnapshotEvery is the crashed and the recovered controllers' snapshot
// cadence.
const crashSnapshotEvery = 24

// crashRun is the crash-recovery oracle of a soak: the journaled controller's
// durable state is shadowed at every WAL sequence point; then the segmented
// WAL — treated as one logical byte stream — is cut at random offsets and at
// every segment boundary (a crash mid-rotation), and covered segments a
// crashed compactor would have left behind are re-injected. Recovery must
// (a) discard the torn tail whole, (b) rehydrate to a state that passes the
// invariant audit, and (c) land byte-identically on the shadow captured at
// the surviving sequence number. A single half-applied operation anywhere
// breaks (c); a leaked resource breaks (b). Every commit is also checked as
// it is written, not only where a cut happens to land: the replay of the WAL
// up to it must equal its shadow, or the commit left out a change the
// controller made.
type crashRun struct {
	dir, live string
	store     *journal.Store
	// shadows maps each journaled sequence number to the durable state the
	// live controller had right after writing it; 0 is the empty state.
	shadows map[uint64][]byte
	// archive photographs the WAL directory at crashArchiveSeq.
	archive map[string][]byte
	// entries copies every record written, in order.
	entries []journal.Entry
	// divergent names each sequence number whose WAL prefix replays to a
	// state other than its shadow.
	divergent []string
	hookErr   error
}

// walPart is one WAL file's contribution to the logical byte stream.
type walPart struct {
	name string
	data []byte
}

// newCrashRun opens a tiny-segment journal in a fresh temporary directory.
func newCrashRun() (*crashRun, error) {
	dir, err := os.MkdirTemp("", "griphon-crashrec-*")
	if err != nil {
		return nil, err
	}
	cr := &crashRun{dir: dir, live: filepath.Join(dir, "live"), archive: map[string][]byte{}}
	if cr.store, err = journal.Open(cr.live, journal.Options{SegmentSize: crashSegmentSize}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return cr, nil
}

// remove closes the journal, if crash has not, and deletes the directory.
func (cr *crashRun) remove() {
	cr.store.Close() //lint:allow errcheck idempotent; crash reports the first close
	os.RemoveAll(cr.dir)
}

// shadow starts shadowing ctrl's durable state at every journal write, the
// ground truth for that sequence number.
func (cr *crashRun) shadow(ctrl *core.Controller) error {
	empty, err := core.ReplayDurable(nil, nil)
	if err != nil {
		return err
	}
	cr.shadows = map[uint64][]byte{0: empty}
	cr.store.SetOnAppend(func(e journal.Entry) {
		st, err := ctrl.DurableState()
		if err != nil && cr.hookErr == nil {
			cr.hookErr = err
		}
		cr.shadows[e.Seq] = st
		e.Data = bytes.Clone(e.Data) // the store reuses its buffer
		cr.entries = append(cr.entries, e)
		if replayed, err := core.ReplayDurable(nil, cr.entries); err != nil {
			cr.divergent = append(cr.divergent, fmt.Sprintf("replay of the WAL to seq %d failed: %v", e.Seq, err))
		} else if st != nil && !bytes.Equal(replayed, st) {
			cr.divergent = append(cr.divergent, fmt.Sprintf("replay of the WAL to seq %d diverges from its shadow", e.Seq))
		}
		if e.Seq == crashArchiveSeq {
			paths, err := journal.WALFiles(cr.live)
			if err != nil {
				return
			}
			for _, p := range paths {
				// A racing compactor may unlink files mid-listing; whatever
				// survives the read is the photograph.
				if b, err := os.ReadFile(p); err == nil {
					cr.archive[filepath.Base(p)] = b
				}
			}
		}
	})
	return nil
}

// crash kills the run where it stands, lays out every kill point, recovers
// each, and adds the trials' table and notes to res. It returns the number
// of recoveries that failed an oracle.
func (cr *crashRun) crash(res *Result, seed int64, trials int) (int, error) {
	if cr.hookErr != nil {
		return 0, cr.hookErr
	}
	if err := cr.store.Close(); err != nil {
		return 0, err
	}

	paths, err := journal.WALFiles(cr.live)
	if err != nil {
		return 0, err
	}
	var parts []walPart
	total := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		parts = append(parts, walPart{name: filepath.Base(p), data: b})
		total += len(b)
	}
	snap, _ := os.ReadFile(filepath.Join(cr.live, "snapshot.db")) //lint:allow errcheck may not exist

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
		want, ok := cr.shadows[seq]
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
			AutoRepair: true, Journal: tstore, SnapshotEvery: crashSnapshotEvery,
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

	// A commit whose record leaves out what changed is a finding wherever the
	// cuts land.
	findings := len(cr.divergent)
	for _, d := range cr.divergent {
		res.notef("commit check: %s", d)
	}

	// Every cut is laid out bare and zero-padded. The zeros are a clean end:
	// the padded layout must recover the same sequence number, and count torn
	// bytes exactly when the bare one does — when a partial frame survives.
	tornTotal := int64(0)
	minSeq, maxSeq := uint64(1<<63), uint64(0)
	for trial, cut := range cuts {
		trialDir := filepath.Join(cr.dir, fmt.Sprintf("trial%d", trial))
		if err := makeTrialDir(trialDir, cut, false); err != nil {
			return 0, err
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
			return 0, err
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
	if len(cr.archive) > 0 {
		trialDir := filepath.Join(cr.dir, "compaction")
		if err := makeTrialDir(trialDir, total, false); err != nil {
			return 0, err
		}
		for name, b := range cr.archive {
			if finalNames[name] {
				continue // still live at crash; the cut layout already has it
			}
			staleSegs++
			if err := os.WriteFile(filepath.Join(trialDir, name), b, 0o644); err != nil {
				return 0, err
			}
		}
		// Closing the recovered store waits out the compaction Open started.
		compactTrials = 1
		_, _, finding := recoverTrial(trialDir, len(cuts))
		if left, err := journal.WALFiles(trialDir); finding == "" && err == nil && len(left) > len(parts) {
			finding = fmt.Sprintf("%d stale segments survived recovery", len(left)-len(parts))
		}
		if finding != "" {
			findings++
			res.notef("compaction trial (%d stale segments present): %s", staleSegs, finding)
		}
	}

	tb := metrics.NewTable("Crash injection: random WAL truncation, recover, audit, diff",
		"Quantity", "Value")
	tb.Row("commits journaled", float64(len(cr.shadows)-1))
	tb.Row("WAL bytes at crash", float64(total))
	tb.Row("WAL segments at crash", float64(len(parts)))
	tb.Row("random truncation trials", float64(trials))
	tb.Row("segment-boundary trials", float64(len(parts)))
	tb.Row("mid-compaction trials", float64(compactTrials))
	tb.Row("stale segments re-injected", float64(staleSegs))
	tb.Row("torn bytes discarded", float64(tornTotal))
	tb.Row("lowest surviving seq", float64(minSeq))
	tb.Row("highest surviving seq", float64(maxSeq))
	tb.Row("recovery findings", float64(findings))
	res.Tables = append(res.Tables, tb)

	allTrials := len(cuts) + compactTrials
	res.value("commits", float64(len(cr.shadows)-1))
	if findings == 0 {
		res.notef("%d kill points recovered exactly (%d random, %d segment-boundary, %d mid-compaction; each cut laid out bare and zero-padded): every torn tail discarded whole, every zero tail read as a clean end, every recovery audit-clean and byte-identical to its shadow", allTrials, trials, len(parts), compactTrials)
	} else {
		res.notef("RECOVERY FAILURES: %d of %d trials — see notes above", findings, allTrials)
	}
	return findings, nil
}
