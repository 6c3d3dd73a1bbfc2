package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, s *Store, kind, data string) uint64 {
	t.Helper()
	seq, err := s.Append(kind, []byte(data))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seq := mustAppend(t, s, "commit", fmt.Sprintf(`{"n":%d}`, i))
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, entries := s2.Recovered()
	if snap != nil {
		t.Fatalf("unexpected snapshot: %s", snap)
	}
	if len(entries) != 10 {
		t.Fatalf("recovered %d entries, want 10", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) || e.Kind != "commit" {
			t.Fatalf("entry %d = %+v", i, e)
		}
		want := fmt.Sprintf(`{"n":%d}`, i)
		if string(e.Data) != want {
			t.Fatalf("entry %d data = %s, want %s", i, e.Data, want)
		}
	}
	if s2.Seq() != 10 {
		t.Fatalf("seq = %d, want 10", s2.Seq())
	}
	if !s2.HasState() {
		t.Fatal("HasState = false after recovery")
	}
}

func TestSnapshotSkipsCoveredEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	mustAppend(t, s, "commit", `{"n":2}`)
	if err := s.WriteSnapshot([]byte(`{"state":"s2"}`)); err != nil {
		t.Fatal(err)
	}
	if s.AppendsSinceSnapshot() != 0 {
		t.Fatalf("pending = %d after snapshot", s.AppendsSinceSnapshot())
	}
	mustAppend(t, s, "commit", `{"n":3}`)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, entries := s2.Recovered()
	if string(snap) != `{"state":"s2"}` {
		t.Fatalf("snapshot = %s", snap)
	}
	if len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("entries = %+v, want just seq 3", entries)
	}
	if s2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", s2.Seq())
	}
}

// TestSnapshotCrashBeforeWALReset simulates dying between the snapshot rename
// and the WAL rotation/compaction: the stale WAL entries must be skipped on
// replay because the snapshot covers their sequence numbers.
func TestSnapshotCrashBeforeWALReset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	mustAppend(t, s, "commit", `{"n":2}`)
	// Preserve the WAL as it is before the snapshot rotates away from it.
	walPath := s.activePath
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte(`{"state":"s2"}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Put the stale pre-snapshot WAL back: exactly the crash window.
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, entries := s2.Recovered()
	if string(snap) != `{"state":"s2"}` {
		t.Fatalf("snapshot = %s", snap)
	}
	if len(entries) != 0 {
		t.Fatalf("stale covered entries replayed: %+v", entries)
	}
	if s2.Stats().Skipped != 2 {
		t.Fatalf("skipped = %d, want 2", s2.Stats().Skipped)
	}
	// New appends must continue the sequence past the snapshot.
	if seq := mustAppend(t, s2, "commit", `{"n":3}`); seq != 3 {
		t.Fatalf("next seq = %d, want 3", seq)
	}
}

// TestTornTailTruncatedAtEveryOffset appends a few records, then truncates
// the WAL at every possible byte offset. Recovery must keep exactly the
// records whose frames survive whole and discard the torn tail cleanly. Each
// cut is tried twice: bare, and padded with zeros to an extent boundary the
// way a crashed Options.Fsync store leaves its active segment. The zero tail
// is a clean end, so only a partial frame counts torn bytes, and the next
// append lands right after the last intact frame.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	ref, err := Open(filepath.Join(base, "ref"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // cumulative frame end offsets
	total := 0
	for i := 0; i < 5; i++ {
		mustAppend(t, ref, "commit", fmt.Sprintf(`{"n":%d}`, i))
		b, err := os.ReadFile(ref.activePath)
		if err != nil {
			t.Fatal(err)
		}
		total = len(b)
		ends = append(ends, total)
	}
	walBytes, err := os.ReadFile(ref.activePath)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	intactAt := func(cut int) (n, end int) {
		for _, e := range ends {
			if e <= cut {
				n, end = n+1, e
			}
		}
		return n, end
	}

	for cut := 0; cut <= total; cut++ {
		for _, padded := range []bool{false, true} {
			dir := filepath.Join(base, fmt.Sprintf("cut%04d-%v", cut, padded))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			raw := walBytes[:cut]
			opts := Options{}
			if padded {
				raw = append(raw[:cut:cut], make([]byte, extentStep-cut)...)
				opts.Fsync = true
			}
			// Written under the legacy name: the cut trial doubles as coverage
			// of the pre-segmentation read path.
			if err := os.WriteFile(filepath.Join(dir, legacyWALName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("cut %d padded %v: %v", cut, padded, err)
			}
			_, entries := s.Recovered()
			want, intact := intactAt(cut)
			if len(entries) != want {
				t.Fatalf("cut %d padded %v: recovered %d entries, want %d", cut, padded, len(entries), want)
			}
			for i, e := range entries {
				if wantData := fmt.Sprintf(`{"n":%d}`, i); string(e.Data) != wantData {
					t.Fatalf("cut %d padded %v entry %d: %s", cut, padded, i, e.Data)
				}
			}
			wantTorn := int64(0)
			if cut > intact {
				wantTorn = int64(len(raw) - intact)
			}
			if got := s.Stats().TornBytes; got != wantTorn {
				t.Fatalf("cut %d padded %v: %d torn bytes, want %d", cut, padded, got, wantTorn)
			}
			// The next append lands right after the last intact frame: the
			// torn tail was truncated off, and a zero tail is written over.
			mustAppend(t, s, "commit", `{"n":99}`)
			s.Close()
			after, err := os.ReadFile(filepath.Join(dir, legacyWALName))
			if err != nil {
				t.Fatal(err)
			}
			if p, _, err := readFrame(after[intact:]); err != nil || !bytes.HasSuffix(p, []byte(`{"n":99}`)) {
				t.Fatalf("cut %d padded %v: no appended frame at byte %d (%v)", cut, padded, intact, err)
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("cut %d padded %v reopen: %v", cut, padded, err)
			}
			_, entries2 := s2.Recovered()
			if len(entries2) != want+1 || s2.Stats().TornBytes != 0 {
				t.Fatalf("cut %d padded %v reopen: %d entries, %d torn bytes; want %d, none", cut, padded, len(entries2), s2.Stats().TornBytes, want+1)
			}
			s2.Close()
		}
	}
}

// TestCorruptPayloadDetected flips a byte inside a committed frame's payload;
// the checksum must reject it and recovery must stop there.
func TestCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":0}`)
	walPath := s.activePath
	end1, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	s.Close()

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(end1)+frameHeader+2] ^= 0xff // corrupt second frame's payload
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, entries := s2.Recovered()
	if len(entries) != 1 || string(entries[0].Data) != `{"n":0}` {
		t.Fatalf("entries = %+v, want just record 0", entries)
	}
	if s2.Stats().TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}
}

func TestAbsurdLengthRejected(t *testing.T) {
	dir := t.TempDir()
	frame := make([]byte, frameHeader)
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0x7f
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyWALName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, entries := s.Recovered(); len(entries) != 0 {
		t.Fatalf("entries = %+v", entries)
	}
	if s.Stats().TornBytes != frameHeader {
		t.Fatalf("torn bytes = %d, want %d", s.Stats().TornBytes, frameHeader)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "commit", `{"n":1}`)
	if err := s.WriteSnapshot([]byte(`{"state":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, snapName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestOnAppendHook(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seen []uint64
	s.SetOnAppend(func(e Entry) { seen = append(seen, e.Seq) })
	mustAppend(t, s, "commit", `{}`)
	mustAppend(t, s, "commit", `{}`)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestFsyncCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "commit", `{}`)
	if s.Stats().Fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1", s.Stats().Fsyncs)
	}
}

func TestFrameCodec(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	frame := appendFrame(nil, payload)
	got, n, err := readFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: n=%d payload=%s", n, got)
	}
	// Two frames back to back decode in order.
	two := appendFrame(frame, []byte(`{"x":2}`))
	p1, n1, err := readFrame(two)
	if err != nil || !bytes.Equal(p1, payload) {
		t.Fatalf("frame 1: %s %v", p1, err)
	}
	p2, _, err := readFrame(two[n1:])
	if err != nil || string(p2) != `{"x":2}` {
		t.Fatalf("frame 2: %s %v", p2, err)
	}
}

func TestEntryJSONStable(t *testing.T) {
	e := Entry{Seq: 7, Kind: "commit", Data: json.RawMessage(`{"a":1}`)}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(e)
	if !bytes.Equal(b, b2) {
		t.Fatal("entry marshal not stable")
	}
}
