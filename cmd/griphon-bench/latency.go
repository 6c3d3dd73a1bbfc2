package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"griphon/internal/experiments"
)

// runLatencyBench runs the setup-latency benchmark and writes the JSON report
// that experiments.TestLatencyWithinCommittedBaseline holds later runs to.
func runLatencyBench(seed int64, iters int, out string) error {
	rep, err := experiments.LatencyBench(seed, iters)
	if err != nil {
		return err
	}
	for _, name := range sortedClasses(rep) {
		c := rep.Classes[name]
		fmt.Printf("%-12s serial p50=%.1fs p95=%.1fs p99=%.1fs | fast p50=%.1fs p95=%.1fs p99=%.1fs (%.2fx)\n",
			name, c.Baseline.P50, c.Baseline.P95, c.Baseline.P99,
			c.Fast.P50, c.Fast.P95, c.Fast.P99, c.SpeedupP50)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (seed %d, %d setups per class per mode)\n", out, seed, iters)
	return nil
}

func sortedClasses(rep experiments.LatencyReport) []string {
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
