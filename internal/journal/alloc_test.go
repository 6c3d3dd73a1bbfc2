package journal

import (
	"bytes"
	"runtime"
	"testing"
)

// TestAppendZeroAlloc gates the binary append hot path: once the scratch
// buffer has warmed up, Append must not allocate. A regression here is a
// throughput regression on every commit the controller journals. The Fsync
// case covers what only a synced store does per append: the zero-fill ahead
// of the writer, the fdatasync and its timing.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"nofsync", Options{SegmentSize: -1}},
		{"fsync", Options{Fsync: true, SegmentSize: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			data := []byte(`{"cid":"c-1","kind":"commit","paths":["a","b"],"gbps":40}`)
			// Warm the scratch buffer.
			if _, err := s.Append("commit", data); err != nil {
				t.Fatal(err)
			}
			// 100 runs of ~80 B cross no extent boundary; 2 000 cross one.
			allocs := testing.AllocsPerRun(2000, func() {
				if _, err := s.Append("commit", data); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("Append allocates %.2f objects per call, want 0", allocs)
			}
		})
	}
}

// TestLoadSnapshotHoldsFileOnce bounds what reading a snapshot back costs: the
// file's bytes, once, plus a constant. The snapshot handed to the controller
// is a view of the file's buffer, not a second copy of it.
func TestLoadSnapshotHoldsFileOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	const size = 1 << 20
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := bytes.Repeat([]byte("0123456789abcdef"), size/16)
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	s.Close()

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := &Store{dir: dir}
		if err := r.loadSnapshot(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.snapData, state) {
			t.Fatal("snapshot read back differs from what was written")
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(size + 32<<10); perLoad > limit {
		t.Errorf("loadSnapshot allocates %d B for a %d B snapshot, want at most %d", perLoad, size, limit)
	}
}
