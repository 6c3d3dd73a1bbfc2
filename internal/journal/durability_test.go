package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestFsyncFailureBurnsSequenceNumber is the discriminating test for the
// duplicate-sequence bug: before the fix, Append wrote the frame, failed the
// fsync, and returned without advancing s.seq — leaving a frame with seq N on
// disk while the retry wrote a second, different frame under the same N.
// Replay then surfaced both. The fix burns the number on fsync failure, so
// the retry gets a fresh one and every frame on disk has a unique sequence.
func TestFsyncFailureBurnsSequenceNumber(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	s.testSyncErr = func() error {
		if fail {
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	}
	if _, err := s.Append("commit", []byte(`{"attempt":1}`)); err == nil {
		t.Fatal("append survived injected fsync failure")
	}
	fail = false
	// The retry is the append the caller believes committed. Pre-fix it was
	// issued sequence 1 again; post-fix the failed attempt's number is burned.
	seq, err := s.Append("commit", []byte(`{"attempt":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("retry got seq %d, want 2 (seq 1 must stay burned)", seq)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, entries := s2.Recovered()
	seen := map[uint64]bool{}
	for _, e := range entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence %d replayed: %+v", e.Seq, entries)
		}
		seen[e.Seq] = true
	}
	// The acknowledged record must be recovered under its returned number.
	if !seen[2] {
		t.Fatalf("acked seq 2 missing from replay: %+v", entries)
	}
	for _, e := range entries {
		if e.Seq == 2 && string(e.Data) != `{"attempt":2}` {
			t.Fatalf("seq 2 data = %s", e.Data)
		}
	}
}

// TestWriteFailureRestoresOffset is the discriminating test for the
// offset-rollback bug: a failed Write advances the fd offset by the bytes it
// managed to emit, and Truncate alone does not move it back. Pre-fix, the
// retry then wrote past the truncated end, leaving a zero-filled hole that
// replay read as a torn frame — silently discarding the retried record even
// though it was acknowledged (and fsynced) durable.
func TestWriteFailureRestoresOffset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	s.testWriteErr = func() (int, error) {
		if armed {
			armed = false
			return 3, fmt.Errorf("injected short write")
		}
		return 0, nil
	}
	if _, err := s.Append("commit", []byte(`{"attempt":1}`)); err == nil {
		t.Fatal("append survived injected write failure")
	}
	// The partial frame was truncated off, so the number was never exposed
	// and the retry reuses it.
	seq, err := s.Append("commit", []byte(`{"attempt":2}`))
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if seq != 1 {
		t.Fatalf("retry got seq %d, want 1 (truncate succeeded, number reusable)", seq)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().TornBytes != 0 {
		t.Fatalf("TornBytes = %d: the acked frame was written over a hole", s2.Stats().TornBytes)
	}
	_, entries := s2.Recovered()
	if len(entries) != 1 || entries[0].Seq != 1 || string(entries[0].Data) != `{"attempt":2}` {
		t.Fatalf("acked record lost or mangled on replay: %+v", entries)
	}
}

// TestUnremovablePartialFrameWedgesStore is the discriminating test for the
// wedge: when a failed Write's partial frame cannot be truncated off, replay
// will stop at that torn frame and discard everything after it — so the store
// must refuse later appends rather than acknowledge records recovery cannot
// reach. Pre-fix, the store burned the number and kept appending; those later
// acknowledged records vanished on the next Open. The wedge heals once the
// removal succeeds on a retried append.
func TestUnremovablePartialFrameWedgesStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	writeFail := true
	s.testWriteErr = func() (int, error) {
		if writeFail {
			writeFail = false
			return 5, fmt.Errorf("injected short write")
		}
		return 0, nil
	}
	truncFail := true
	s.testTruncErr = func() error {
		if truncFail {
			return fmt.Errorf("injected truncate failure")
		}
		return nil
	}
	if _, err := s.Append("commit", []byte(`{"n":2}`)); err == nil {
		t.Fatal("append survived injected write failure")
	}
	// The partial frame is stuck on the file: every append must now fail —
	// an acknowledged record after a torn frame is unrecoverable.
	if seq, err := s.Append("commit", []byte(`{"n":3}`)); err == nil {
		t.Fatalf("append acked (seq %d) behind an unremovable torn frame", seq)
	}
	// Truncation heals: the next append removes the partial frame, unwedges,
	// and commits durably.
	truncFail = false
	seq, err := s.Append("commit", []byte(`{"n":4}`))
	if err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if seq != 3 {
		t.Fatalf("healed append got seq %d, want 3 (seq 2 burned by the failed write)", seq)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().TornBytes != 0 {
		t.Fatalf("TornBytes = %d: torn frame survived the heal", s2.Stats().TornBytes)
	}
	_, entries := s2.Recovered()
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2: %+v", len(entries), entries)
	}
	if entries[1].Seq != 3 || string(entries[1].Data) != `{"n":4}` {
		t.Fatalf("acked post-heal record lost or mangled: %+v", entries)
	}
}

// TestWedgedStoreRefusesRotation pins the interaction between the wedge and
// segment sealing: rotating a file whose tail holds an unremoved partial
// frame would let later appends land in a segment replay can never reach
// (a torn tail voids every later file), so rotate must refuse while wedged.
func TestWedgedStoreRefusesRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "commit", `{"n":1}`)
	s.testWriteErr = func() (int, error) { return 2, fmt.Errorf("injected short write") }
	s.testTruncErr = func() error { return fmt.Errorf("injected truncate failure") }
	if _, err := s.Append("commit", []byte(`{"n":2}`)); err == nil {
		t.Fatal("append survived injected write failure")
	}
	rotations := s.Stats().Rotations
	if err := s.rotate(); err == nil {
		t.Fatal("rotate succeeded past an unremoved partial frame")
	}
	if got := s.Stats().Rotations; got != rotations {
		t.Fatalf("Rotations moved %d -> %d while wedged", rotations, got)
	}
}

// TestDuplicateSeqReplayLastWins covers directories written by the pre-fix
// code: two intact frames carrying the same sequence number. The retried
// write is the one the caller saw succeed, so replay keeps the later frame.
func TestDuplicateSeqReplayLastWins(t *testing.T) {
	dir := t.TempDir()
	var raw []byte
	raw = appendFrame(raw, appendBinaryRecord(nil, 1, "commit", []byte(`{"try":"first"}`)))
	raw = appendFrame(raw, appendBinaryRecord(nil, 1, "commit", []byte(`{"try":"second"}`)))
	raw = appendFrame(raw, appendBinaryRecord(nil, 2, "commit", []byte(`{"n":2}`)))
	if err := os.WriteFile(filepath.Join(dir, legacyWALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, entries := s.Recovered()
	if len(entries) != 2 {
		t.Fatalf("entries = %+v, want 2", entries)
	}
	if string(entries[0].Data) != `{"try":"second"}` {
		t.Fatalf("seq 1 resolved to %s, want the later write", entries[0].Data)
	}
	if s.Stats().DupSeqs != 1 {
		t.Fatalf("DupSeqs = %d, want 1", s.Stats().DupSeqs)
	}
	if s.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", s.Seq())
	}
}

// TestSnapshotFailureLeavesAccountingTruthful injects a failure at every
// pre-rename snapshot stage and verifies the store still reports the truth:
// the snapshot did not happen, the cadence counter still shows the backlog,
// no temp file lingers, and a subsequent snapshot succeeds cleanly.
func TestSnapshotFailureLeavesAccountingTruthful(t *testing.T) {
	for _, stage := range []string{"write", "sync", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
			}
			s.testSnapErr = func(at string) error {
				if at == stage {
					return fmt.Errorf("injected %s failure", at)
				}
				return nil
			}
			if err := s.WriteSnapshot([]byte(`{"state":"x"}`)); err == nil {
				t.Fatalf("snapshot survived injected %s failure", stage)
			}
			if got := s.AppendsSinceSnapshot(); got != 3 {
				t.Fatalf("pending = %d after failed snapshot, want 3", got)
			}
			if s.Stats().Snapshots != 0 {
				t.Fatalf("Snapshots = %d after failed snapshot", s.Stats().Snapshots)
			}
			if _, err := os.Stat(filepath.Join(dir, snapName+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("temp snapshot left behind (stat err %v)", err)
			}
			// Recovery data must still be available for the next attempt, and
			// the store must not be wedged in "snapshotting".
			s.testSnapErr = nil
			if err := s.WriteSnapshot([]byte(`{"state":"x"}`)); err != nil {
				t.Fatalf("retry snapshot: %v", err)
			}
			if got := s.AppendsSinceSnapshot(); got != 0 {
				t.Fatalf("pending = %d after retry snapshot, want 0", got)
			}
			if s.Stats().Snapshots != 1 {
				t.Fatalf("Snapshots = %d after retry", s.Stats().Snapshots)
			}
		})
	}
}

// TestSnapshotRotateFailureStillCommits: a failure after the rename (the
// rotation) must be reported, but the accounting must already reflect the
// snapshot — it is, in fact, durable on disk.
func TestSnapshotRotateFailureStillCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "commit", `{"n":1}`)
	s.testSnapErr = func(at string) error {
		if at == "rotate" {
			return fmt.Errorf("injected rotate failure")
		}
		return nil
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s1"}`)); err == nil {
		t.Fatal("rotate failure not reported")
	}
	if got := s.AppendsSinceSnapshot(); got != 0 {
		t.Fatalf("pending = %d, want 0: the snapshot is durable", got)
	}
	if s.Stats().Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", s.Stats().Snapshots)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, _ := s2.Recovered()
	if string(snap) != `{"state":"s1"}` {
		t.Fatalf("snapshot = %s", snap)
	}
}

// TestGroupCommitSharesFsyncs arranges a deterministic group commit: the
// first appender becomes sync leader and blocks inside its fsync while two
// more appenders write their frames and queue as followers. When the leader
// finishes, one follower syncs once on behalf of both. Three durable appends,
// two fsyncs.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testSyncErr = func() error {
		once.Do(func() {
			close(blocked)
			<-release
		})
		return nil
	}

	errs := make(chan error, 3)
	seqs := make(chan uint64, 3)
	appendOne := func(n int) {
		seq, err := s.Append("commit", []byte(fmt.Sprintf(`{"n":%d}`, n)))
		seqs <- seq
		errs <- err
	}
	go appendOne(1)
	<-blocked // leader is mid-fsync, store lock free
	go appendOne(2)
	go appendOne(3)
	// Wait for both followers' frames to hit the file before releasing the
	// leader; they are then parked waiting for the next sync window.
	for s.Seq() < 3 {
		runtime.Gosched()
	}
	close(release)
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("append: %v", err)
		}
		seen[<-seqs] = true
	}
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("sequence numbers = %v", seen)
	}
	st := s.Stats()
	if st.Fsyncs != 2 {
		t.Fatalf("fsyncs = %d, want 2 (leader + one shared follower sync)", st.Fsyncs)
	}
	if st.GroupCommits != 1 {
		t.Fatalf("group commits = %d, want 1", st.GroupCommits)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, entries := s2.Recovered(); len(entries) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(entries))
	}
}

// TestConcurrentAppendsReplayCleanly hammers the store from many goroutines
// under Fsync and checks the invariants the race detector cannot: unique,
// gap-free sequence numbers and a full replay.
func TestConcurrentAppendsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 16
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Append("commit", []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Appends != workers*perWorker {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs (%d) exceed appends (%d)", st.Fsyncs, st.Appends)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, entries := s2.Recovered()
	if len(entries) != workers*perWorker {
		t.Fatalf("recovered %d entries, want %d", len(entries), workers*perWorker)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d: sequence not gap-free", i, e.Seq)
		}
	}
}

// copyDir copies a journal directory's files as they stand — what a kill at
// this instant would leave for the next Open, page cache included.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// replayedSeqs opens dir and returns the sequence numbers it recovers.
func replayedSeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, entries := s.Recovered()
	seqs := make([]uint64, 0, len(entries))
	for _, e := range entries {
		seqs = append(seqs, e.Seq)
	}
	return seqs
}

// TestKillBetweenWriteAndSync puts a kill point in the window the two halves
// open: the frame is written, its fsync has not returned, and nobody has been
// told anything. A directory captured there may or may not replay the record
// — either is a state the caller could have crashed into without having
// acknowledged it. A directory captured after Sync returns must replay it.
func TestKillBetweenWriteAndSync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "commit", `{"n":1}`)

	var killed string
	synced := false
	s.testSyncErr = func() error {
		if synced {
			t.Error("the fsync ran after Sync had already returned")
		}
		killed = copyDir(t, dir)
		return nil
	}
	seq, err := s.Write("commit", []byte(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if killed != "" {
		t.Fatal("Write ran an fsync: the two halves are not separate")
	}
	if err := s.Sync(seq); err != nil {
		t.Fatal(err)
	}
	synced = true
	if killed == "" {
		t.Fatal("Sync returned without an fsync having covered the write")
	}

	switch got := replayedSeqs(t, killed); {
	case len(got) == 1 && got[0] == 1:
	case len(got) == 2 && got[0] == 1 && got[1] == 2:
	default:
		t.Fatalf("killed before the fsync returned: replayed %v, want [1] or [1 2]", got)
	}
	if got := replayedSeqs(t, copyDir(t, dir)); len(got) != 2 || got[1] != seq {
		t.Fatalf("killed after Sync returned: replayed %v, want [1 %d]", got, seq)
	}
}

// TestSyncOnClosedStoreFails: a sequence number no fsync covered cannot be
// covered once the file is closed, and nil would acknowledge it.
func TestSyncOnClosedStoreFails(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	durable := mustAppend(t, s, "commit", `{"n":1}`)
	seq, err := s.Write("commit", []byte(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Sync(seq); err == nil {
		t.Fatal("Sync of an uncovered seq on a closed store returned nil")
	}
	if err := s.Sync(durable); err != nil {
		t.Fatalf("Sync of a seq covered before Close: %v", err)
	}
}

// TestRotationSealsAfterSync: writers run ahead of their syncs, so a full
// segment always holds frames no fsync has covered. Rotation must not wait
// for a quiet moment that never comes; it syncs the file, then seals it. And
// if that sync fails the file is not sealed, and exactly the frames it left
// uncovered are poisoned.
func TestRotationSealsAfterSync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true, SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 100)))
	write := func() uint64 {
		t.Helper()
		seq, err := s.Write("commit", payload)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	// Two writers take turns and neither syncs: uncovered frames are
	// outstanding at every write.
	for i := 0; s.Stats().Rotations == 0; i++ {
		if i == 100 {
			t.Fatal("no rotation after 200 unsynced writes past a 1 KiB limit")
		}
		write()
		write()
	}
	if got := s.Stats().Fsyncs; got != 1 {
		t.Fatalf("fsyncs = %d, want 1: the seal's", got)
	}
	s.mu.Lock()
	sealed, covered := s.sealed[0], s.syncedSeq
	s.mu.Unlock()
	if covered != sealed.maxSeq {
		t.Fatalf("sealed through seq %d but synced through %d", sealed.maxSeq, covered)
	}
	// The sealed file replays whole: frame after frame to its last byte.
	raw, err := os.ReadFile(sealed.path)
	if err != nil {
		t.Fatal(err)
	}
	frames := uint64(0)
	for off := 0; off < len(raw); frames++ {
		_, n, err := readFrame(raw[off:])
		if err != nil {
			t.Fatalf("sealed segment torn at byte %d of %d: %v", off, len(raw), err)
		}
		off += n
	}
	if frames != sealed.maxSeq {
		t.Fatalf("sealed segment holds %d frames, want %d", frames, sealed.maxSeq)
	}

	// Fill the next segment the same way, with the disk refusing to sync.
	s.testSyncErr = func() error { return fmt.Errorf("injected fsync failure") }
	rotations := s.Stats().Rotations
	var top uint64
	for i := 0; i < 12; i++ { // 12 x ~130 B: past the limit, so the last writes each try to seal
		top = write()
	}
	if got := s.Stats().Rotations; got != rotations {
		t.Fatalf("rotations moved %d -> %d: a segment was sealed though its sync failed", rotations, got)
	}
	for seq := uint64(1); seq <= top; seq++ {
		if err := s.Sync(seq); (err != nil) != (seq > covered) {
			t.Fatalf("Sync(%d) = %v with seqs through %d covered before the failure and %d written", seq, err, covered, top)
		}
	}

	// The disk heals: the next write's seal syncs the whole file and rotates.
	s.testSyncErr = nil
	healed := write()
	if got := s.Stats().Rotations; got != rotations+1 {
		t.Fatalf("rotations = %d after the disk healed, want %d", got, rotations+1)
	}
	if err := s.Sync(healed); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := replayedSeqs(t, dir); uint64(len(got)) != healed || got[len(got)-1] != healed {
		t.Fatalf("replayed %d records ending at %d, want all %d", len(got), got[len(got)-1], healed)
	}
}

// TestFailedSyncStaysFailed: a sequence number a failed sync covered is
// never acknowledged, even after a later sync of the same file succeeds. The
// kernel reports a lost writeback once; the later success does not prove the
// earlier pages reached the disk. Numbers synced before the failure stay
// acknowledged, and back-to-back failures poison everything they covered.
func TestFailedSyncStaysFailed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	write := func() uint64 {
		t.Helper()
		seq, err := s.Write("commit", []byte(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	fail := false
	s.testSyncErr = func() error {
		if fail {
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	}
	before := write()
	if err := s.Sync(before); err != nil {
		t.Fatal(err)
	}
	fail = true
	first := write()
	if err := s.Sync(first); err == nil {
		t.Fatal("Sync survived an injected fsync failure")
	}
	second := write()
	if err := s.Sync(second); err == nil {
		t.Fatal("Sync survived an injected fsync failure")
	}
	fail = false
	after := write()
	if err := s.Sync(after); err != nil {
		t.Fatalf("Sync after the disk healed: %v", err)
	}
	for _, c := range []struct {
		seq    uint64
		failed bool
	}{{before, false}, {first, true}, {second, true}, {after, false}} {
		if err := s.Sync(c.seq); (err != nil) != c.failed {
			t.Fatalf("Sync(%d) = %v; want failed %v", c.seq, err, c.failed)
		}
	}
}

// TestSnapshotDirSyncFailureKeepsSegments: the snapshot's rename is durable
// only once the directory is synced. If that sync fails, compaction must not
// unlink the covered segments: after a power loss the unlinks could survive
// while the rename does not. Reopening without the snapshot — the rename
// lost — must still recover every acknowledged record.
func TestSnapshotDirSyncFailureKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
	}
	segments := walFileNames(t, dir)
	s.testSnapErr = func(at string) error {
		if at == "dirsync" {
			return fmt.Errorf("injected directory sync failure")
		}
		return nil
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s"}`)); err == nil {
		t.Fatal("snapshot survived an injected directory sync failure")
	}
	s.compactWG.Wait()
	if got := walFileNames(t, dir); strings.Join(got, " ") != strings.Join(segments, " ") {
		t.Fatalf("segments %v after a failed directory sync, want %v left in place", got, segments)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, snapName)); err != nil {
		t.Fatal(err)
	}
	if got := replayedSeqs(t, dir); len(got) != n {
		t.Fatalf("replayed %v without the snapshot, want all %d acknowledged records", got, n)
	}
}
