package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSyncedAppendKeepsFileSize is the gate on the zero-filled extent: with
// Options.Fsync an append lands inside bytes already written, so the file's
// size — the metadata an fdatasync would otherwise have to journal — changes
// once per extent step and once per rotation, not on every append.
func TestSyncedAppendKeepsFileSize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true, SegmentSize: 4 * extentStep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 500)))
	const appends = 2000
	prev, changes := fileSize(t, s.activePath), 0
	for i := 0; i < appends; i++ {
		mustAppend(t, s, "commit", string(data))
		if now := fileSize(t, s.activePath); now != prev {
			prev = now
			changes++
		}
	}
	st := s.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotation in %d bytes past a %d byte segment limit", st.Bytes, 4*extentStep)
	}
	// Each segment's size changes once per extent it fills, and once more
	// where its last frame crosses the rotation bound.
	steps := (int64(st.Bytes) + extentStep - 1) / extentStep
	if bound := steps + int64(st.Rotations); int64(changes) > bound {
		t.Fatalf("active segment size changed %d times in %d appends, want at most %d (%d extent steps + %d rotations)",
			changes, appends, bound, steps, st.Rotations)
	}
	if got := replayedSeqs(t, copyDir(t, dir)); len(got) != appends {
		t.Fatalf("replayed %d records, want %d", len(got), appends)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestZeroTailReopens: a store opened with Options.Fsync trims the zero tail
// off a segment it seals, and leaves one on its active segment. Every later
// Open — synced or not — reads that tail as the clean end, appends from the
// last frame, and the next Open recovers the appended record. A zero header
// followed by any non-zero byte is still a torn frame.
func TestZeroTailReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	sealed := s.activePath
	if err := s.rotate(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, sealed); got != int64(s.Stats().Bytes) {
		t.Fatalf("sealed segment holds %d bytes, want its %d frame bytes only", got, s.Stats().Bytes)
	}
	mustAppend(t, s, "commit", `{"n":2}`)
	path := s.activePath
	s.Close()
	if got := fileSize(t, path); got != extentStep {
		t.Fatalf("active segment holds %d bytes after one synced append, want %d", got, extentStep)
	}
	for n, opts := range []Options{{Fsync: true}, {}, {Fsync: true}} {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, entries := s.Recovered()
		if len(entries) != n+2 || s.Stats().TornBytes != 0 {
			t.Fatalf("reopen %d: %d entries, %d torn bytes; want %d entries, none torn", n, len(entries), s.Stats().TornBytes, n+2)
		}
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, n+3))
		s.Close()
	}
	if got := replayedSeqs(t, dir); len(got) != 5 {
		t.Fatalf("replayed %v, want 5 records", got)
	}

	// A non-zero byte anywhere after a zero header: not a zero tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.LastIndexFunc(raw, func(r rune) bool { return r != 0 }) + 1
	raw[end+frameHeader+10] = 'x'
	torn := t.TempDir()
	if err := os.WriteFile(filepath.Join(torn, filepath.Base(path)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := Open(torn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, entries := ts.Recovered(); len(entries) != 4 || ts.Stats().TornBytes != int64(len(raw)-end) {
		t.Fatalf("zero header then garbage: %d entries, %d torn bytes; want 4, %d", len(entries), ts.Stats().TornBytes, len(raw)-end)
	}
}

// TestSyncHistograms: every WAL sync is timed and counted once, and the
// records the syncs cover add up to the appends, so the benchmark's journal
// figures can be re-derived from /metrics. Reading the histograms while
// appenders sync is safe.
func TestSyncHistograms(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: true, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const appends = 40
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < appends/4; i++ {
				if _, err := s.Append("commit", []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		s.SyncHistograms() // a scrape while syncs are in flight
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s"}`)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	secs, recs := s.SyncHistograms()
	walSyncs := st.Fsyncs - st.Snapshots
	if secs.Count() != walSyncs || recs.Count() != walSyncs {
		t.Fatalf("histogram counts %d and %d, want %d WAL syncs (%d fsyncs, %d of them snapshots)",
			secs.Count(), recs.Count(), walSyncs, st.Fsyncs, st.Snapshots)
	}
	if recs.Sum() != appends || st.Appends != appends {
		t.Fatalf("syncs covered %v records of %d appends, want %d", recs.Sum(), st.Appends, appends)
	}
	if secs.Sum() <= 0 {
		t.Fatalf("sync wall time sums to %v s", secs.Sum())
	}
}
