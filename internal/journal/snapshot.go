package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
)

func (s *Store) loadSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	payload, n, err := readFrame(raw)
	if err != nil {
		return fmt.Errorf("journal: corrupt snapshot: %w", err)
	}
	if n != len(raw) {
		return fmt.Errorf("journal: snapshot has %d trailing bytes", len(raw)-n)
	}
	seq, data, err := decodeSnapshot(payload)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	s.snapSeq = seq
	s.snapData = data
	s.hasSnap = true
	s.seq = seq
	return nil
}

// SnapshotWriter streams one snapshot payload into the journal. Bytes flow
// straight through a CRC accumulator into the temp file — the store never
// holds the whole snapshot in memory, which is what lets the controller
// serialize its state record by record instead of one giant marshal.
// Commit finalizes the frame header, fsyncs, renames the temp file into
// place, syncs the directory, rotates the WAL, and kicks the background
// compactor.
type SnapshotWriter struct {
	s    *Store
	f    *os.File
	bw   *bufio.Writer
	crc  hash.Hash32
	n    int64 // payload bytes, including the format preamble
	seq  uint64
	tmp  string
	done bool
}

// BeginSnapshot starts a streamed snapshot covering every record appended so
// far. Only one snapshot may be in flight at a time.
func (s *Store) BeginSnapshot() (*SnapshotWriter, error) {
	s.mu.Lock()
	if s.active == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("journal: store is closed")
	}
	if s.snapshotting {
		s.mu.Unlock()
		return nil, fmt.Errorf("journal: snapshot already in progress")
	}
	s.snapshotting = true
	seq := s.seq
	s.mu.Unlock()

	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.endSnapshot()
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &SnapshotWriter{s: s, f: f, bw: bufio.NewWriter(f), crc: crc32.NewIEEE(), seq: seq, tmp: tmp}
	// Reserve the frame header; Commit patches it once the payload length
	// and checksum are known.
	var hole [frameHeader]byte
	if _, err := w.bw.Write(hole[:]); err != nil {
		return nil, w.fail(err)
	}
	if _, err := w.payload(appendBinarySnapshotPreamble(nil, seq)); err != nil {
		return nil, w.fail(err)
	}
	return w, nil
}

func (s *Store) endSnapshot() {
	s.mu.Lock()
	s.snapshotting = false
	s.mu.Unlock()
}

// payload writes p into the frame payload, feeding the checksum.
func (w *SnapshotWriter) payload(p []byte) (int, error) {
	n, err := w.bw.Write(p)
	w.crc.Write(p[:n]) //lint:allow errcheck hash.Hash never errors
	w.n += int64(n)
	if err != nil {
		return n, fmt.Errorf("journal: %w", err)
	}
	return n, nil
}

// Write streams snapshot bytes.
func (w *SnapshotWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("journal: snapshot writer is finished")
	}
	return w.payload(p)
}

// fail abandons the snapshot, removing the temp file. The store's snapshot
// accounting is untouched: nothing durable changed, so the cadence trigger
// and stats keep describing the last snapshot that actually exists.
func (w *SnapshotWriter) fail(err error) error {
	if w.done {
		return err
	}
	w.done = true
	w.f.Close()      //lint:allow errcheck already failing
	os.Remove(w.tmp) //lint:allow errcheck best effort cleanup
	w.s.endSnapshot()
	return err
}

// Abort abandons the snapshot and removes the temp file.
func (w *SnapshotWriter) Abort() {
	w.fail(nil) //lint:allow errcheck nothing more to surface
}

// Commit finalizes the snapshot: patch the frame header, fsync, rename into
// place, sync the directory so the rename is durable, then fold the snapshot
// into the store's accounting, rotate the WAL and compact the covered
// segments.
//
// Accounting is committed exactly when the rename is: a failure before it
// leaves stats, cadence and sequence bookkeeping describing the previous
// snapshot; a failure after it (directory sync, rotation) is reported but the
// bookkeeping already reflects the snapshot that is, in fact, in place. A
// failed directory sync also skips rotation and compaction: after a power
// loss the unlinks could survive while the rename does not, losing the
// records the covered segments hold. The next snapshot compacts them.
func (w *SnapshotWriter) Commit() error {
	if w.done {
		return fmt.Errorf("journal: snapshot writer is finished")
	}
	if err := w.injected("write"); err != nil {
		return w.fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	if w.n > maxFrame {
		return w.fail(fmt.Errorf("journal: snapshot of %d bytes exceeds the %d byte frame limit", w.n, maxFrame))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.n))
	binary.LittleEndian.PutUint32(hdr[4:8], w.crc.Sum32())
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	err := w.f.Sync()
	if herr := w.injected("sync"); herr != nil {
		err = herr
	}
	if err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	err = os.Rename(w.tmp, filepath.Join(w.s.dir, snapName))
	if herr := w.injected("rename"); herr != nil {
		err = herr
	}
	if err != nil {
		w.done = true
		os.Remove(w.tmp) //lint:allow errcheck best effort cleanup
		w.s.endSnapshot()
		return fmt.Errorf("journal: %w", err)
	}
	w.done = true
	derr := syncDir(w.s.dir)
	if herr := w.injected("dirsync"); herr != nil {
		derr = herr
	}

	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotting = false
	s.stats.Fsyncs++
	s.stats.Snapshots++
	s.snapSeq = w.seq
	s.hasSnap = true
	// Recovered's view is superseded; release it so a long-lived store's
	// memory stays bounded by the live WAL tail.
	s.snapData = nil
	s.entries = nil
	s.pending = int(s.seq - w.seq)
	if derr != nil {
		return fmt.Errorf("journal: syncing the directory after the snapshot rename: %w", derr)
	}
	var rerr error
	if s.activeSize > 0 {
		rerr = s.rotate()
	}
	if herr := w.injected("rotate"); herr != nil {
		rerr = herr
	}
	s.compactCovered()
	return rerr
}

// injected consults the store's snapshot fault-injection seam.
func (w *SnapshotWriter) injected(stage string) error {
	if w.s.testSnapErr == nil {
		return nil
	}
	return w.s.testSnapErr(stage)
}

// WriteSnapshot atomically replaces the snapshot with data, stamped with the
// current sequence number. Convenience wrapper over the streaming writer for
// callers that already hold the bytes.
func (s *Store) WriteSnapshot(data []byte) error {
	w, err := s.BeginSnapshot()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}
