package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func walFileNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		names = append(names, filepath.Base(p))
	}
	return names
}

// TestSegmentRotation forces rotation with a tiny segment size and verifies
// the log is spread over multiple files that replay in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
	}
	if s.Stats().Rotations == 0 {
		t.Fatal("no rotations with a 64-byte segment limit")
	}
	if len(walFileNames(t, dir)) < 2 {
		t.Fatalf("wal files = %v, want several", walFileNames(t, dir))
	}
	s.Close()

	s2, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, entries := s2.Recovered()
	if len(entries) != n {
		t.Fatalf("recovered %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d seq = %d", i, e.Seq)
		}
	}
	// Appends continue into the restored active segment.
	if seq := mustAppend(t, s2, "commit", `{"more":true}`); seq != n+1 {
		t.Fatalf("next seq = %d, want %d", seq, n+1)
	}
}

// TestCompactionRemovesCoveredSegments: after a snapshot, sealed segments
// whose records the snapshot covers are unlinked in the background; the
// directory converges to snapshot + active segment.
func TestCompactionRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
	}
	before := len(walFileNames(t, dir))
	if before < 2 {
		t.Fatalf("want several segments before snapshot, got %d", before)
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s20"}`)); err != nil {
		t.Fatal(err)
	}
	s.compactWG.Wait()
	after := walFileNames(t, dir)
	if len(after) != 1 {
		t.Fatalf("wal files after compaction = %v, want just the active segment", after)
	}
	if s.Stats().Compacted == 0 {
		t.Fatal("compacted counter not advanced")
	}
	s.Close()

	s2, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, entries := s2.Recovered()
	if string(snap) != `{"state":"s20"}` {
		t.Fatalf("snapshot = %s", snap)
	}
	if len(entries) != 0 {
		t.Fatalf("entries = %+v", entries)
	}
	if s2.Seq() != 20 {
		t.Fatalf("seq = %d, want 20", s2.Seq())
	}
}

// TestOpenFinishesInterruptedCompaction: covered segments left behind by a
// crash between snapshot and compaction are removed by the next Open.
func TestOpenFinishesInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
	}
	// Stash copies of the sealed segments, snapshot, then put them back:
	// exactly the state a crash mid-compaction leaves.
	stash := map[string][]byte{}
	for _, p := range walFileNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, p))
		if err != nil {
			t.Fatal(err)
		}
		stash[p] = b
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s20"}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for name, b := range stash {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Skipped; got != 20 {
		t.Fatalf("skipped = %d, want 20", got)
	}
	s2.compactWG.Wait()
	left := walFileNames(t, dir)
	if len(left) != 1 {
		t.Fatalf("wal files after recovery compaction = %v", left)
	}
	s2.Close()
}

// TestTornTailVoidsLaterSegments: a torn frame invalidates everything after
// it, including whole later segments.
func TestTornTailVoidsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
	}
	files := walFileNames(t, dir)
	if len(files) < 3 {
		t.Fatalf("want >=3 segments, got %v", files)
	}
	s.Close()
	// Tear the middle of the second segment.
	target := filepath.Join(dir, files[1])
	b, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	left := walFileNames(t, dir)
	if len(left) != 2 {
		t.Fatalf("surviving wal files = %v, want the first two", left)
	}
	if s2.Stats().TornBytes == 0 {
		t.Fatal("torn bytes not accounted")
	}
	_, entries := s2.Recovered()
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d seq %d: replay not contiguous", i, e.Seq)
		}
	}
	// The torn segment is the append target again; new appends extend it.
	mustAppend(t, s2, "commit", `{"recovered":true}`)
}

// TestMixedFormatDirectory: a directory can carry a legacy JSON snapshot and
// JSON WAL records alongside binary records appended after an upgrade — one
// log, two encodings, one replay. testdata/json_era is such a directory,
// frozen: the last commit that still had a JSON frame writer made two
// appends, a snapshot {"state":"legacy"} and one more append into it.
func TestMixedFormatDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapName, filepath.Base(segmentPath(dir, 2))} {
		raw, err := os.ReadFile(filepath.Join("testdata", "json_era", name))
		if err != nil {
			t.Fatal(err)
		}
		if raw[frameHeader] != '{' {
			t.Fatalf("fixture %s starts with %#x, want '{'", name, raw[frameHeader])
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Upgrade: open it with today's store and keep appending.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, entries := s.Recovered()
	if string(snap) != `{"state":"legacy"}` {
		t.Fatalf("snapshot = %s", snap)
	}
	if len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("entries = %+v", entries)
	}
	mustAppend(t, s, "commit", `{"era":"binary","n":4}`)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, entries2 := s2.Recovered()
	if len(entries2) != 2 {
		t.Fatalf("entries = %+v", entries2)
	}
	if string(entries2[0].Data) != `{"era":"json","n":3}` || string(entries2[1].Data) != `{"era":"binary","n":4}` {
		t.Fatalf("mixed replay data = %s / %s", entries2[0].Data, entries2[1].Data)
	}
}

// TestBinaryRecordRoundTrip pins the binary record codec, including kinds
// outside the one-byte table.
func TestBinaryRecordRoundTrip(t *testing.T) {
	cases := []struct {
		seq  uint64
		kind string
		data string
	}{
		{1, "commit", `{"a":1}`},
		{1 << 40, "commit", ``},
		{7, "custom-kind", `{"weird":true}`},
		{8, "", `x`},
		{9, strings.Repeat("k", 300), `{"long":"kind"}`},
	}
	for _, c := range cases {
		payload := appendBinaryRecord(nil, c.seq, c.kind, []byte(c.data))
		e, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if e.Seq != c.seq || e.Kind != c.kind || string(e.Data) != c.data {
			t.Fatalf("round trip %+v -> %+v", c, e)
		}
	}
}
