package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLatencyMeetsSpeedupBar is PR 6's acceptance check: the fast
// configuration (graph choreography + path cache + pre-arm) must at least
// halve the median unprotected setup latency, and must never be slower than
// the serial baseline in any class.
func TestLatencyMeetsSpeedupBar(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 21
	}
	rep, err := LatencyBench(1, iters)
	if err != nil {
		t.Fatal(err)
	}
	up, ok := rep.Classes["unprotected"]
	if !ok {
		t.Fatal("no unprotected class in the report")
	}
	if up.SpeedupP50 < 2.0 {
		t.Errorf("unprotected p50 speedup = %.2fx, want >= 2x (%.1fs -> %.1fs)",
			up.SpeedupP50, up.Baseline.P50, up.Fast.P50)
	}
	for name, c := range rep.Classes {
		if c.Fast.P50 > c.Baseline.P50 {
			t.Errorf("%s: fast p50 %.1fs slower than baseline %.1fs", name, c.Fast.P50, c.Baseline.P50)
		}
		if c.Fast.P95 == 0 || c.Baseline.P95 == 0 {
			t.Errorf("%s: empty distribution (baseline p95 %.1f, fast p95 %.1f)", name, c.Baseline.P95, c.Fast.P95)
		}
	}
	// The distributions must be ordered: p50 <= p95 <= p99.
	for name, c := range rep.Classes {
		for _, s := range []LatencyStats{c.Baseline, c.Fast} {
			if s.P50 > s.P95 || s.P95 > s.P99 {
				t.Errorf("%s: percentiles out of order: p50 %.1f p95 %.1f p99 %.1f", name, s.P50, s.P95, s.P99)
			}
		}
	}
}

// TestLatencyWithinCommittedBaseline re-runs the benchmark at the committed
// baseline's seed and iteration count — virtual time, so the same code gives
// the same numbers — and fails if any class's fast-mode p95 regressed beyond
// 10% or a class went missing. `make latency` regenerates the baseline.
func TestLatencyWithinCommittedBaseline(t *testing.T) {
	const path = "../../BENCH_PR6.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want LatencyReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(want.Classes) == 0 || want.Iters <= 0 {
		t.Fatalf("%s holds no classes or a non-positive iteration count", path)
	}
	got, err := LatencyBench(want.Seed, want.Iters)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Classes {
		g, ok := got.Classes[name]
		if !ok {
			t.Errorf("class %s missing from the re-run", name)
			continue
		}
		if limit := w.Fast.P95 * 1.10; g.Fast.P95 > limit {
			t.Errorf("%s fast p95 %.1fs exceeds committed %.1fs by more than 10%%", name, g.Fast.P95, w.Fast.P95)
		}
	}
}
