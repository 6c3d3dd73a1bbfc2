// Package journal is the controller's durability layer: an append-only,
// checksummed write-ahead log of commit records plus periodic full snapshots,
// stored side by side in one state directory. The paper's controller is built
// around a resource & inventory database that outlives any single control
// process (§2.2, Fig. 3); this package is that database's persistence engine.
//
// On-disk layout:
//
//	<dir>/wal-00000001.log   WAL segments, rotated on size
//	<dir>/wal-00000002.log   ...
//	<dir>/wal.log            pre-segmentation WAL (read, never written anew)
//	<dir>/snapshot.db        a single frame holding the last full state snapshot
//
// Every frame is
//
//	u32 LE payload length | u32 LE CRC32 (IEEE) of payload | payload
//
// The payload's first byte selects its encoding: '{' is the original JSON
// envelope (read only: no writer for it exists, it is kept so state
// directories written before the binary format still replay), 0x01 is the
// binary record encoding (varint sequence number, a one-byte kind table, then
// the raw record bytes — see binary.go). Snapshots carry the same format byte.
//
// Under Options.Fsync the active segment also has a zero tail: the file is
// zero-filled, with written zeros, up to an extentStep boundary ahead of the
// last frame (never past the rotation bound plus one frame), so an append
// changes neither the file's size nor its allocation and its fdatasync has no
// metadata to flush. Rotation trims the tail before sealing, so sealed
// segments hold frames only.
//
// A write that is torn mid-frame — short header, short payload, or a payload
// whose checksum does not match — invalidates that frame and everything after
// it, across segment boundaries. Open detects the torn tail, truncates the
// segment back to the last intact frame, deletes any later segments, and
// reports how many bytes were discarded. A torn record is therefore discarded
// whole: recovery never sees a half-applied operation. A remainder of nothing
// but zeros is not torn: it is the unwritten end of a zero-filled segment, the
// file's clean end, and the next append is written over it. A zero header
// followed by any non-zero byte is still torn.
//
// An append has two halves. Write frames the record, puts it in the active
// file and returns its sequence number; Sync blocks until a sequence number is
// covered by a successful fsync. Append is one after the other. A caller that
// holds a lock of its own while it writes can release it before it syncs, and
// one Sync of the last number a batch of writes returned covers the batch.
// Under Options.Fsync the syncs are group-committed: the first waiter in a
// window becomes the sync leader, one fdatasync covers every frame written
// before it ran, and the other waiters wake without issuing their own. A
// single sequential appender degenerates to exactly one sync per append. A
// number a failed sync covered is never acknowledged, even after a later sync
// succeeds. Each new segment's directory entry is synced before any record in
// it can be acknowledged.
//
// Snapshots are streamed (temp file + fsync + rename + directory sync) and
// stamped with the WAL sequence number they cover. After a successful
// snapshot the WAL rotates to a fresh segment and a background compactor
// unlinks the covered segments; if the process dies anywhere in that window,
// replay simply skips the WAL entries whose sequence numbers the snapshot
// already covers. A segment is sealed only once every frame in it is synced,
// so a sequence number a Sync is still waiting on is never left behind in a
// closed file.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"griphon/internal/obs"
	"griphon/internal/sim"
)

const (
	frameHeader = 8
	// maxFrame bounds a single record so a corrupt length field cannot make
	// the reader attempt a multi-gigabyte allocation.
	maxFrame = 64 << 20
	// defaultSegmentSize rotates the WAL once the active segment holds this
	// many bytes.
	defaultSegmentSize = 4 << 20
	// extentStep is how far ahead of the write offset a store opened with
	// Options.Fsync zero-fills its active segment, and the boundary the fill
	// is aligned to. An append inside the filled extent changes neither the
	// file's size nor its block allocation, so its fdatasync leaves the
	// filesystem no metadata to journal; one append in a step's worth pays
	// for the next step.
	extentStep = 128 << 10
)

// zeroExtent is the source of every zero-fill write: read only, so it costs
// the process no memory beyond the kernel's shared zero page.
var zeroExtent [extentStep]byte

// Bucket bounds of the sync histograms: wall seconds from 10 µs to 100 ms,
// and the records one sync covered.
var (
	syncSecondsBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1}
	syncRecordsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
)

// Entry is one recovered WAL record.
type Entry struct {
	// Seq is the record's position in the global append sequence. Sequence
	// numbers survive snapshots: a snapshot taken at Seq=n causes entries
	// with Seq<=n to be skipped on replay.
	Seq uint64 `json:"seq"`
	// Kind names the record type (e.g. "commit").
	Kind string `json:"kind"`
	// Data is the record payload, left raw for the caller to decode.
	Data json.RawMessage `json:"data"`
}

// Options tunes a Store.
type Options struct {
	// Fsync makes Sync (and so Append) wait for a file sync. Durability
	// against OS crashes costs fsyncs; concurrent waiters share them via
	// group commit. Tests and simulations leave it off.
	Fsync bool
	// SegmentSize rotates the WAL to a new segment once the active one
	// reaches this many bytes (0 = 4 MiB default, negative disables
	// rotation).
	SegmentSize int64
}

// Stats counts the store's lifetime activity, including what Open recovered.
type Stats struct {
	Appends      uint64 // records appended this process
	Bytes        uint64 // WAL frame bytes written this process; zero fill not counted
	Fsyncs       uint64 // file syncs issued: each WAL sync and each snapshot's fsync
	GroupCommits uint64 // WAL syncs that covered more than one append
	Snapshots    uint64 // snapshots written this process
	Rotations    uint64 // WAL segment rotations
	Compacted    uint64 // covered WAL files unlinked by the compactor
	Replayed     int    // WAL entries recovered by Open
	Skipped      int    // WAL entries Open discarded as covered by the snapshot
	DupSeqs      int    // duplicate sequence numbers resolved last-write-wins
	TornBytes    int64  // bytes truncated from a torn WAL tail
}

// syncFailure is the range of sequence numbers, (from, to], that a failed
// sync covered and no earlier sync had covered. Those numbers are never
// acknowledged, even once a later sync succeeds: the kernel reports a lost
// writeback once, so a later success does not prove their pages reached the
// disk.
type syncFailure struct {
	from, to uint64
	err      error
}

// sealedFile is a WAL file no longer appended to, awaiting compaction once a
// snapshot covers its highest sequence number.
type sealedFile struct {
	path   string
	maxSeq uint64
}

// Store is an open journal directory. All methods are safe for concurrent
// use; under Options.Fsync concurrent Sync calls group-commit their fsyncs.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	syncCond *sync.Cond

	active     *os.File
	activePath string
	activeSize int64  // frame bytes in the active file: the write offset
	fileSize   int64  // the active file's length: activeSize plus its zero tail
	activeSeq  uint64 // last sequence number written to the active file
	segIndex   uint64 // active segment index (0 = legacy wal.log)
	sealed     []sealedFile

	seq      uint64
	snapSeq  uint64
	snapData []byte
	hasSnap  bool
	entries  []Entry
	pending  int // appends since the last snapshot
	stats    Stats
	onAppend func(Entry)

	// Group-commit state: the sync leader releases every waiter whose frame
	// its fsync covered.
	syncing   bool
	syncedSeq uint64        // highest seq known durable
	syncFails []syncFailure // ranges failed syncs poisoned, ascending
	// Each sync's wall time and the records it newly covered.
	syncSecs, syncRecords *obs.Histogram

	snapshotting bool
	compactWG    sync.WaitGroup

	// Wedge state: non-nil wedgedErr means a failed Write left a partial
	// frame at offset wedgedAt that could not be truncated off the active
	// file. Replay stops at a torn frame and discards everything after it,
	// so while wedged the store refuses appends (retrying the removal on
	// each attempt) and refuses rotation (sealing the torn tail would void
	// any later segment on replay).
	wedgedAt  int64
	wedgedErr error

	encBuf []byte // reused frame-encoding scratch, guarded by mu

	// Test seams, nil in production. testSyncErr replaces the WAL sync
	// result; testSnapErr injects a failure at a named snapshot stage
	// ("write", "sync", "rename", "dirsync", "rotate"); testWriteErr fails
	// the next WAL write after emitting only the reported number of frame
	// bytes; testTruncErr fails partial-frame truncation.
	testSyncErr  func() error
	testSnapErr  func(stage string) error
	testWriteErr func() (partial int, err error)
	testTruncErr func() error
}

// Open opens (creating if necessary) the journal in dir, loads the snapshot
// if one exists, scans the WAL segments, and truncates any torn tail. The
// recovered snapshot and entries are available via Recovered until the next
// snapshot.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		syncSecs:    obs.NewHistogram(syncSecondsBuckets),
		syncRecords: obs.NewHistogram(syncRecordsBuckets),
	}
	s.syncCond = sync.NewCond(&s.mu)
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.loadWAL(); err != nil {
		return nil, err
	}
	// Everything recovered from disk is as durable as it gets.
	s.syncedSeq = s.seq
	if s.hasSnap && len(s.sealed) > 0 && s.sealed[0].maxSeq <= s.snapSeq {
		// A crash may have landed between a snapshot and its compaction;
		// finish the job so covered segments do not accumulate. The crash
		// may also have come before the snapshot's directory sync, so make
		// the rename durable before unlinking what it covers.
		if err := syncDir(dir); err == nil {
			s.mu.Lock()
			s.compactCovered()
			s.mu.Unlock()
		}
	}
	return s, nil
}

// loadWAL scans every WAL file in replay order, folds intact frames into the
// recovered entry list, and truncates the torn tail (invalidating any later
// files whole). The last surviving file becomes the append target; a fresh
// directory starts segment 1.
func (s *Store) loadWAL() error {
	files, err := walFiles(s.dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		f, err := s.newSegment(1)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		s.setActive(f, segmentPath(s.dir, 1), 1, 0, 0)
		return nil
	}
	activeIdx := len(files) - 1
	fileMaxes := make([]uint64, len(files))
	activeEnd := 0
	for i, wf := range files {
		good, fileMax, clean, err := s.scanFile(wf.path)
		if err != nil {
			return err
		}
		fileMaxes[i] = fileMax
		activeEnd = good
		if clean {
			continue
		}
		// A torn frame voids that frame and everything after it: truncate
		// this file back to its last intact frame and unlink the later
		// files, which are unreachable on replay and must not survive to
		// confuse a future Open.
		if err := os.Truncate(wf.path, int64(good)); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		for _, later := range files[i+1:] {
			if st, err := os.Stat(later.path); err == nil {
				s.stats.TornBytes += st.Size()
			}
			if err := os.Remove(later.path); err != nil {
				return fmt.Errorf("journal: removing voided segment: %w", err)
			}
		}
		activeIdx = i
		break
	}
	for i := 0; i < activeIdx; i++ {
		s.sealed = append(s.sealed, sealedFile{path: files[i].path, maxSeq: fileMaxes[i]})
	}
	if err := s.openActive(files[activeIdx].path, files[activeIdx].index, int64(activeEnd)); err != nil {
		return err
	}
	s.stats.Replayed = len(s.entries)
	s.pending = len(s.entries)
	return nil
}

// scanFile folds one WAL file's intact frames into the store, returning the
// clean byte length, the highest sequence number seen in the file (including
// snapshot-covered frames), and whether the file ended cleanly. A remainder
// of nothing but zeros is a clean end: the unwritten part of a zero-filled
// extent, not a torn frame.
func (s *Store) scanFile(path string) (good int, fileMax uint64, clean bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("journal: %w", err)
	}
	fileMax = s.seq
	for good < len(raw) && !allZero(raw[good:]) {
		payload, n, err := readFrame(raw[good:])
		if err != nil {
			s.stats.TornBytes += int64(len(raw) - good)
			return good, fileMax, false, nil
		}
		e, err := decodeRecord(payload)
		if err != nil {
			s.stats.TornBytes += int64(len(raw) - good)
			return good, fileMax, false, nil
		}
		good += n
		if e.Seq > fileMax {
			fileMax = e.Seq
		}
		if e.Seq <= s.snapSeq {
			s.stats.Skipped++ // already folded into the snapshot
			continue
		}
		if e.Seq <= s.seq {
			// Duplicate sequence number: the pre-group-commit Append could
			// leave a frame on disk after a failed fsync and then retry
			// under the same number. The retried record is the one the
			// caller believes committed: last write wins.
			s.stats.DupSeqs++
			for i := len(s.entries) - 1; i >= 0; i-- {
				if s.entries[i].Seq == e.Seq {
					s.entries[i] = e
					break
				}
			}
			continue
		}
		s.entries = append(s.entries, e)
		s.seq = e.Seq
	}
	return good, fileMax, true, nil
}

// allZero reports whether b holds nothing but zero bytes. It compares a
// zero extent at a time and stops at the first block that differs, so a
// frame header costs it one block.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), extentStep)
		if !bytes.Equal(b[:n], zeroExtent[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// openActive opens the scanned append target positioned at its clean end,
// which is short of the file's length by any zero tail.
func (s *Store) openActive(path string, index uint64, clean int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		_, err = f.Seek(clean, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	s.setActive(f, path, index, clean, st.Size())
	return nil
}

// setActive makes f, holding clean frame bytes in a file of size bytes, the
// append target.
func (s *Store) setActive(f *os.File, path string, index uint64, clean, size int64) {
	s.active = f
	s.activePath = path
	s.activeSize = clean
	s.fileSize = size
	s.activeSeq = s.seq
	s.segIndex = index
}

// Recovered returns what Open found: the latest snapshot payload (nil if
// none) and the WAL entries appended after it, in order. It is meaningful
// only before the first post-Open snapshot, which releases both to keep the
// store's memory bounded.
func (s *Store) Recovered() (snapshot []byte, entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapData, s.entries
}

// HasState reports whether the directory held any durable state at Open.
func (s *Store) HasState() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasSnap || len(s.entries) > 0
}

// Seq returns the sequence number of the last record written or recovered.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// AppendsSinceSnapshot returns how many WAL records the latest snapshot does
// not cover — the caller's snapshot-cadence trigger.
func (s *Store) AppendsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// SetOnAppend registers a hook that fires when a record has been written,
// before any fsync covers it, with the store lock held (the hook must not
// call back into the store). The crash-injection harness uses it to capture
// shadow state at each sequence point.
func (s *Store) SetOnAppend(fn func(Entry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAppend = fn
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Append writes one record to the WAL and returns its sequence number once
// the record is as durable as the store was opened to make it: Write, then
// Sync of the number Write returned.
func (s *Store) Append(kind string, data []byte) (uint64, error) {
	seq, err := s.Write(kind, data)
	if err != nil {
		return 0, err
	}
	if err := s.Sync(seq); err != nil {
		// The frame is written but not provably durable; the burned number
		// guarantees the retry gets a fresh one.
		return 0, err
	}
	return seq, nil
}

// Write frames one record, puts it in the active file and returns its
// sequence number. The record is in the file but no fsync covers it yet: it
// may be acknowledged only after Sync of its number (or a later one) returns
// nil.
//
// Error discipline: a failed write never leaves the store able to reuse a
// sequence number that might already be on disk, and never leaves the store
// able to acknowledge a later record that replay could not recover. A failed
// Write tries to truncate the partial frame back off the file and restore
// the write offset — only if both succeed is the number rolled back for
// reuse. If the partial frame cannot be provably removed, the number is
// burned and the store wedges: replay stops at a torn frame and discards
// everything after it, so accepting more records would acknowledge ones
// recovery cannot reach. Each subsequent Write retries the removal and
// unwedges the store once it succeeds.
func (s *Store) Write(kind string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0, fmt.Errorf("journal: store is closed")
	}
	if s.wedgedErr != nil {
		if err := s.truncateActive(s.wedgedAt); err != nil {
			return 0, fmt.Errorf("journal: store wedged by unremovable partial frame (removal retried: %v): %w", err, s.wedgedErr)
		}
		s.wedgedErr = nil
	}
	seq := s.seq + 1
	frame, err := s.encodeFrame(seq, kind, data)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	preSize := s.activeSize
	if err := s.extend(preSize + int64(len(frame))); err != nil {
		return 0, fmt.Errorf("journal: zero-filling the segment: %w", err)
	}
	n, werr := s.writeActive(frame)
	if werr != nil {
		if terr := s.truncateActive(preSize); terr == nil {
			// The partial frame is provably gone and the write offset is back
			// at the clean end of the file; the sequence number was never
			// exposed and stays available for the retry.
			return 0, fmt.Errorf("journal: %w", werr)
		}
		// Could not remove the partial frame (or could not restore the write
		// offset, which would leave a hole that reads as torn). Burn the
		// number so a retried write cannot produce a duplicate, and wedge the
		// store: a frame written after a torn one is discarded by replay, so
		// it must never be acknowledged.
		s.seq = seq
		s.activeSeq = seq
		s.activeSize += int64(n)
		s.fileSize = max(s.fileSize, s.activeSize)
		s.wedgedAt = preSize
		s.wedgedErr = werr
		return 0, fmt.Errorf("journal: %w", werr)
	}
	s.seq = seq
	s.activeSeq = seq
	s.activeSize += int64(len(frame))
	s.fileSize = max(s.fileSize, s.activeSize)
	s.stats.Bytes += uint64(len(frame))
	s.pending++
	s.stats.Appends++
	if s.onAppend != nil {
		s.onAppend(Entry{Seq: seq, Kind: kind, Data: data})
	}
	s.maybeRotate()
	return seq, nil
}

// Sync blocks until seq is covered by a successful fsync, and reports the
// failure of the fsync that covered it otherwise. A failed fsync keeps the
// numbers it covered burned: their bytes are in the file, and a retry under
// the same number would replay as a duplicate. A store opened without
// Options.Fsync promised nothing beyond the write, so Sync returns at once.
func (s *Store) Sync(seq uint64) error {
	if !s.opts.Fsync {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.seq {
		return fmt.Errorf("journal: sync of seq %d, but only %d are written", seq, s.seq)
	}
	if err := s.waitDurable(seq); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// extend zero-fills the active file, under Options.Fsync, so that it reaches
// at least end: to the next extentStep boundary, but not past the rotation
// bound unless end itself is. The zeros are written, not fallocated: the
// first write into an unwritten extent is an allocation change of its own,
// which an fdatasync would have to journal. Without Options.Fsync there is no
// sync to spare, and the file grows frame by frame. Called with mu held.
func (s *Store) extend(end int64) error {
	if !s.opts.Fsync || end <= s.fileSize {
		return nil
	}
	target := (end + extentStep - 1) / extentStep * extentStep
	if limit := s.segmentLimit(); limit > 0 && target > limit {
		target = max(limit, end)
	}
	for s.fileSize < target {
		n, err := s.active.WriteAt(zeroExtent[:min(target-s.fileSize, extentStep)], s.fileSize)
		s.fileSize += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// writeActive writes one frame at the active file's current offset. The test
// seam simulates a short write the way a real one behaves: the partial bytes
// land in the file and advance the fd offset before the error surfaces.
// Called with mu held.
func (s *Store) writeActive(frame []byte) (int, error) {
	if s.testWriteErr != nil {
		if partial, err := s.testWriteErr(); err != nil {
			if partial > len(frame) {
				partial = len(frame)
			}
			n, _ := s.active.Write(frame[:partial])
			return n, err
		}
	}
	return s.active.Write(frame)
}

// truncateActive cuts the active file back to off and restores the write
// offset to match — Truncate alone does not move the fd offset, and a write
// issued past the truncated end would leave a zero-filled hole that replay
// reads as a torn frame, discarding every record after it. Called with mu
// held.
func (s *Store) truncateActive(off int64) error {
	if s.testTruncErr != nil {
		if err := s.testTruncErr(); err != nil {
			return err
		}
	}
	if err := s.active.Truncate(off); err != nil {
		return err
	}
	s.fileSize = off
	if _, err := s.active.Seek(off, io.SeekStart); err != nil {
		return err
	}
	s.activeSize = off
	return nil
}

// waitDurable blocks until seq is covered by a successful fsync, electing
// this goroutine sync leader if no fsync is in flight. A number a failed
// fsync covered first is never acknowledged, even once a later fsync of the
// same file succeeds. Called and returns with mu held; mu is released while
// it waits or syncs.
func (s *Store) waitDurable(seq uint64) error {
	for {
		if err := s.poisoned(seq); err != nil {
			return err
		}
		if s.syncedSeq >= seq {
			return nil
		}
		if s.active == nil {
			// Nothing can cover seq any more; nil here would acknowledge it.
			return fmt.Errorf("store is closed")
		}
		if !s.syncing {
			s.syncing = true
			top := s.activeSeq // every frame written to the active file so far
			f := s.active
			hook := s.testSyncErr
			prevSynced := s.syncedSeq
			s.mu.Unlock()
			sw := sim.NewStopwatch()
			err := datasync(f)
			if hook != nil {
				err = hook()
			}
			elapsed := sw.Elapsed()
			s.mu.Lock()
			s.syncing = false
			s.stats.Fsyncs++
			if top > prevSynced+1 {
				s.stats.GroupCommits++
			}
			s.syncSecs.Observe(elapsed.Seconds())
			s.syncRecords.Observe(float64(top - prevSynced))
			switch n := len(s.syncFails); {
			case err == nil:
				s.syncedSeq = max(s.syncedSeq, top)
			case n > 0 && s.syncFails[n-1].from == prevSynced:
				// No sync succeeded since the last failure: widen its range.
				s.syncFails[n-1].to = top
				s.syncFails[n-1].err = err
			default:
				s.syncFails = append(s.syncFails, syncFailure{from: prevSynced, to: top, err: err})
			}
			s.syncCond.Broadcast()
			continue
		}
		s.syncCond.Wait()
	}
}

// poisoned returns the error of the failed fsync that poisoned seq, or nil.
// Called with mu held.
func (s *Store) poisoned(seq uint64) error {
	for i := len(s.syncFails) - 1; i >= 0 && s.syncFails[i].to >= seq; i-- {
		if seq > s.syncFails[i].from {
			return s.syncFails[i].err
		}
	}
	return nil
}

// SyncHistograms returns copies of the histograms of every WAL sync's wall
// time in seconds and of the records it newly covered. A store opened
// without Options.Fsync never syncs its WAL, and both stay empty.
func (s *Store) SyncHistograms() (seconds, records *obs.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncSecs.Clone(), s.syncRecords.Clone()
}

// encodeFrame builds the on-disk frame for one record in the store's reused
// scratch buffer. It allocates nothing once the buffer has grown to the
// workload's frame size.
func (s *Store) encodeFrame(seq uint64, kind string, data []byte) ([]byte, error) {
	b := append(s.encBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header hole
	b = appendBinaryRecord(b, seq, kind, data)
	size := len(b) - frameHeader
	if size > maxFrame {
		return nil, fmt.Errorf("record of %d bytes exceeds the %d byte frame limit", size, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(size))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[frameHeader:]))
	s.encBuf = b
	return b, nil
}

// Close waits for any background compaction, then closes the WAL file. The
// store is unusable afterwards.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.syncCond.Wait()
	}
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// appendFrame appends one encoded frame for payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame decodes the frame at the start of b, returning its payload and
// total encoded size. Any violation — short header, absurd length, short
// payload, checksum mismatch — is an error: the frame is torn or corrupt.
func readFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return nil, 0, fmt.Errorf("short header: %d bytes", len(b))
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if size > maxFrame {
		return nil, 0, fmt.Errorf("frame length %d exceeds limit", size)
	}
	if len(b) < frameHeader+int(size) {
		return nil, 0, fmt.Errorf("short payload: want %d, have %d", size, len(b)-frameHeader)
	}
	payload = b[frameHeader : frameHeader+int(size)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	return payload, frameHeader + int(size), nil
}
