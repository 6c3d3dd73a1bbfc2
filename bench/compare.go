package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// workloads and every metric with its direction and, for end-to-end metrics,
// the share by which it may get worse.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per workload and end-to-end metric, both values, how
// much worse b is than a as a share of a, and the bound. It fails when any
// metric is out of bound or b has more failed requests than a.
func compareReports(out io.Writer, benchmarkPath, aPath, bPath string) error {
	var spec benchmarkFile
	if err := readJSON(benchmarkPath, &spec); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	byName := map[string]*result{}
	for _, r := range b.EndToEnd {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.EndToEnd {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(out, "%-18s missing from %s\n", ra.Workload, bPath)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-18s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				ra.Workload, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		verdict := ""
		if rb.Failed > ra.Failed || (ra.Correct && !rb.Correct) {
			verdict = "  FAILURES ROSE"
			bad++
		}
		fmt.Fprintf(out, "%-18s %-22s %14d %14d%s\n", ra.Workload, "failed requests", ra.Failed, rb.Failed, verdict)
		fmt.Fprintf(out, "%-18s %-22s %14.4f %14.4f %+8.1f%%   (the host, not griphond)\n",
			ra.Workload, "host probe ms", ra.HostProbeMs, rb.HostProbeMs, 100*ratio(rb.HostProbeMs-ra.HostProbeMs, ra.HostProbeMs))
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons out of bound", bad)
	}
	return nil
}
