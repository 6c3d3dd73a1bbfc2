package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// TestChoreographySpanGoldens pins the start and end of every span — each
// EMS command, controller step and op — of one setup and teardown per
// choreography, with the calibrated jitter on. The span-tiling tests run
// with jitter off and the mode-agreement test compares outcomes only; this
// is the test that sees a jitter draw, an EMS submission or an edge move.
// Run with -update-golden to rewrite the files after an intended change.
func TestChoreographySpanGoldens(t *testing.T) {
	groomed := Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate1G}
	cases := []struct {
		name string
		cfg  Config
		req  Request
	}{
		{"serial", Config{}, oneHop},
		{"graph", Config{Choreography: ChoreoGraph}, oneHop},
		{"graph-prearm-pathcache", Config{
			Choreography: ChoreoGraph,
			PreArm:       PreArm{WarmOTsPerNode: 2, WarmSessions: 2},
			PathCache:    true,
		}, oneHop},
		// The first 1G circuit lights a pipe, then runs the circuit
		// connect and teardown chains.
		{"groomed", Config{}, groomed},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			tr := obs.NewTracer(k)
			tc.cfg.Tracer = tr
			c, err := New(k, topo.Testbed(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			conn := mustConnect(t, k, c, tc.req)
			job, err := c.Disconnect(tc.req.Customer, conn.ID)
			if err != nil {
				t.Fatal(err)
			}
			k.Run()
			if job.Err() != nil {
				t.Fatal(job.Err())
			}
			var got bytes.Buffer
			if err := obs.WriteJSONL(&got, tr); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "choreo_"+tc.name+".jsonl")
			if *updateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("spans moved from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
			}
		})
	}
}
