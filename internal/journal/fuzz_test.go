package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrame feeds arbitrary bytes to the frame reader: it must either decode
// a frame that re-encodes to the same bytes, or reject cleanly — never panic.
func FuzzFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte(`{"seq":1,"kind":"commit","data":{}}`)))
	f.Add(appendFrame(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := readFrame(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("frame size %d exceeds input %d", n, len(b))
		}
		if !bytes.Equal(appendFrame(nil, payload), b[:n]) {
			t.Fatal("frame does not re-encode to itself")
		}
	})
}

// FuzzRecord feeds arbitrary payloads to the record decoder (both the JSON
// and binary branches) and checks the binary codec round-trips whatever the
// decoder accepts.
func FuzzRecord(f *testing.F) {
	f.Add(appendBinaryRecord(nil, 1, "commit", []byte(`{"a":1}`)))
	f.Add(appendBinaryRecord(nil, 1<<40, "custom", nil))
	f.Add([]byte(`{"seq":3,"kind":"commit","data":{"x":1}}`))
	f.Add([]byte{binTag})
	f.Add([]byte{binTag, 0x80})
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeRecord(payload)
		if err != nil {
			return
		}
		re, err := decodeRecord(appendBinaryRecord(nil, e.Seq, e.Kind, e.Data))
		if err != nil {
			t.Fatalf("re-encode of accepted record rejected: %v", err)
		}
		if re.Seq != e.Seq || re.Kind != e.Kind || !bytes.Equal(re.Data, e.Data) {
			t.Fatalf("binary round trip drifted: %+v -> %+v", e, re)
		}
	})
}

// FuzzWALReplay writes arbitrary bytes as a WAL file and opens the store:
// recovery must never panic, must count torn bytes exactly when something
// other than zeros follows the last intact frame, and must leave a log whose
// next append survives the next reopen.
func FuzzWALReplay(f *testing.F) {
	var seeded []byte
	seeded = appendFrame(seeded, appendBinaryRecord(nil, 1, "commit", []byte(`{"n":1}`)))
	seeded = appendFrame(seeded, appendBinaryRecord(nil, 2, "commit", []byte(`{"n":2}`)))
	f.Add(seeded)
	f.Add(seeded[:len(seeded)-3])
	f.Add([]byte("not a wal at all"))
	zeros := make([]byte, 64)
	f.Add(append(seeded[:len(seeded):len(seeded)], zeros...))
	f.Add(append(append(seeded[:len(seeded):len(seeded)], zeros...), "garbage"...))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, legacyWALName), b, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{Fsync: true})
		if err != nil {
			return
		}
		_, entries := s.Recovered()
		prev := uint64(0)
		for _, e := range entries {
			if e.Seq <= prev {
				t.Fatalf("replay not strictly increasing: %d after %d", e.Seq, prev)
			}
			prev = e.Seq
		}
		if torn, zeroTail := s.Stats().TornBytes > 0, allZero(b[s.activeSize:]); torn == zeroTail {
			t.Fatalf("torn bytes %d after the clean end at %d; the rest is all zeros: %v", s.Stats().TornBytes, s.activeSize, zeroTail)
		}
		if _, err := s.Append("commit", []byte(`{"post":"fuzz"}`)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// The directory must reopen cleanly after the repair + append, with
		// the appended record last.
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		_, after := s2.Recovered()
		if len(after) != len(entries)+1 || string(after[len(after)-1].Data) != `{"post":"fuzz"}` {
			t.Fatalf("reopen recovered %d entries, want %d ending in the append", len(after), len(entries)+1)
		}
	})
}
