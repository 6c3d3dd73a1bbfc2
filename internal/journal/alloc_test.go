package journal

import "testing"

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
