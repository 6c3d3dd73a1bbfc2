package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	legacyWALName = "wal.log"
	segPrefix     = "wal-"
	segSuffix     = ".log"
	snapName      = "snapshot.db"
)

// walFile is one WAL file on disk; index 0 is the legacy single-file WAL,
// which always sorts first (it predates every segment).
type walFile struct {
	path  string
	index uint64
}

// segmentPath names segment n in dir.
func segmentPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix))
}

// walFiles lists dir's WAL files in replay order: the legacy wal.log first
// if present, then segments by ascending index.
func walFiles(dir string) ([]walFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []walFile
	for _, ent := range ents {
		name := ent.Name()
		if name == legacyWALName {
			out = append(out, walFile{path: filepath.Join(dir, name), index: 0})
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		n, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil || n == 0 {
			continue // not a segment of ours
		}
		out = append(out, walFile{path: filepath.Join(dir, name), index: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}

// WALFiles returns the directory's WAL file paths in replay order — the
// legacy wal.log first if present, then segments by index. The crash harness
// uses it to treat the segmented log as one byte stream.
func WALFiles(dir string) ([]string, error) {
	files, err := walFiles(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(files))
	for _, f := range files {
		out = append(out, f.path)
	}
	return out, nil
}

// segmentLimit is the active segment size that triggers rotation, or 0 if
// the store never rotates.
func (s *Store) segmentLimit() int64 {
	switch limit := s.opts.SegmentSize; {
	case limit < 0:
		return 0
	case limit == 0:
		return defaultSegmentSize
	default:
		return limit
	}
}

// maybeRotate seals the active file and opens the next segment once the
// active one is full. Called with mu held.
func (s *Store) maybeRotate() {
	if limit := s.segmentLimit(); limit == 0 || s.activeSize < limit {
		return
	}
	s.rotate() //lint:allow errcheck rotation failure leaves the oversized segment active; the next append retries
}

// newSegment creates segment n empty. Under Options.Fsync it also syncs the
// directory, so the new name is durable before any record in the file can be
// acknowledged.
func (s *Store) newSegment(n uint64) (*os.File, error) {
	f, err := os.OpenFile(segmentPath(s.dir, n), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if s.opts.Fsync {
		if err := syncDir(s.dir); err != nil {
			f.Close() //lint:allow errcheck already failing; the empty file replays as nothing
			return nil, err
		}
	}
	return f, nil
}

// syncDir makes dir's entries — created, renamed and unlinked names —
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotate seals the active file and starts the next segment. Called with mu
// held. On failure the current file stays active and the caller's write is
// unaffected.
//
// Seal after sync: writers run ahead of the fsyncs that cover them, so the
// file to seal usually holds frames some Sync is still waiting on. rotate
// syncs them first, through the same leader election those waiters use — it
// waits out a leader in flight, then leads an fsync of its own if frames are
// still uncovered. A failed fsync poisons the numbers it covered and the file
// is not sealed. mu is released during the sync, so another writer may add
// frames, seal the file or wedge the store meanwhile: the loop takes the
// first two into account, and the wedge is checked after it.
//
// The sealed file is trimmed of its zero tail first, so every sealed segment
// holds frames and nothing else. The trim is not synced: a crash that loses
// it leaves a zero tail replay reads as the file's clean end.
func (s *Store) rotate() error {
	if s.opts.Fsync {
		f := s.active
		for s.syncedSeq < s.activeSeq {
			if err := s.waitDurable(s.activeSeq); err != nil {
				return fmt.Errorf("journal: syncing segment before sealing it: %w", err)
			}
			if s.active != f {
				return nil // sealed by another writer, or closed, while mu was released
			}
		}
	}
	if s.wedgedErr != nil {
		// Sealing a file whose tail holds an unremoved partial frame would
		// let later appends land in a segment replay can never reach: a torn
		// tail voids every later file. Stay on the wedged file until the
		// partial frame is truncated off.
		return fmt.Errorf("journal: cannot rotate past an unremoved partial frame: %w", s.wedgedErr)
	}
	next := s.segIndex + 1
	if s.segIndex == 0 {
		// The legacy wal.log is index 0; its first rotation starts the
		// segment numbering.
		next = 1
	}
	if s.fileSize > s.activeSize {
		if err := s.active.Truncate(s.activeSize); err != nil {
			return fmt.Errorf("journal: trimming segment before sealing it: %w", err)
		}
		s.fileSize = s.activeSize
	}
	f, err := s.newSegment(next)
	if err != nil {
		return fmt.Errorf("journal: rotating segment: %w", err)
	}
	s.active.Close() //lint:allow errcheck file is sealed read-only from here; replay re-verifies every frame
	s.sealed = append(s.sealed, sealedFile{path: s.activePath, maxSeq: s.activeSeq})
	s.setActive(f, segmentPath(s.dir, next), next, 0, 0)
	s.stats.Rotations++
	return nil
}

// compactCovered claims every sealed file the snapshot covers and unlinks
// them on a background goroutine — no appender or reader waits on the
// deletions. Called with mu held.
func (s *Store) compactCovered() {
	var claim []sealedFile
	keep := s.sealed[:0]
	for _, sf := range s.sealed {
		if sf.maxSeq <= s.snapSeq {
			claim = append(claim, sf)
		} else {
			keep = append(keep, sf)
		}
	}
	s.sealed = keep
	if len(claim) == 0 {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		removed := uint64(0)
		for _, sf := range claim {
			if err := os.Remove(sf.path); err == nil {
				removed++
			}
			// A failed unlink is harmless: the file's entries are covered
			// by the snapshot, so a future Open skips them and its own
			// compactor retries the removal.
		}
		s.mu.Lock()
		s.stats.Compacted += removed
		s.mu.Unlock()
	}()
}
