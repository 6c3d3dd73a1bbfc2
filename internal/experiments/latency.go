package experiments

import (
	"fmt"
	"sort"

	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/metrics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Latency is the PR 6 setup-latency war: the same repeat-customer workload is
// run twice per service class — once on the paper-faithful serial choreography
// (the seed's Table 2 behavior) and once with the dependency-graph
// choreography, path cache and speculative pre-arming switched on — and the
// before/after setup-time distributions are reported as p50/p95/p99. The
// acceptance bar is a >= 2x reduction in median unprotected setup latency.
func Latency(seed int64) (Result, error) { return LatencyN(seed, 120) }

// LatencyStats summarizes one mode's setup-time distribution in seconds.
type LatencyStats struct {
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Mean float64 `json:"mean_s"`
}

// LatencyClass pairs the baseline and fast distributions for one service
// class.
type LatencyClass struct {
	Baseline   LatencyStats `json:"baseline"`
	Fast       LatencyStats `json:"fast"`
	SpeedupP50 float64      `json:"speedup_p50"`
}

// LatencyReport is the JSON artifact (BENCH_PR6.json) that
// TestLatencyWithinCommittedBaseline compares against.
type LatencyReport struct {
	PR      int                     `json:"pr"`
	Seed    int64                   `json:"seed"`
	Iters   int                     `json:"iters"`
	Classes map[string]LatencyClass `json:"classes"`
}

// latencyClasses defines the measured service classes in report order.
var latencyClasses = []struct {
	Name    string
	Rate    bw.Rate
	Protect core.Protection
	// Groomed classes pre-establish a persistent connection per site pair so
	// OTN pipes exist and stay alive across the measured churn.
	Groomed bool
}{
	{Name: "unprotected", Rate: bw.Rate10G, Protect: core.Unprotected},
	{Name: "oneplusone", Rate: bw.Rate10G, Protect: core.OnePlusOne},
	{Name: "groomed", Rate: bw.Rate1G, Protect: core.Restore, Groomed: true},
}

var latencyPairs = [][2]topo.SiteID{
	{"DC-A", "DC-B"},
	{"DC-A", "DC-C"},
	{"DC-B", "DC-C"},
}

// fastSetupConfig is the PR 6 "after" configuration: dependency-graph
// choreography, path caching, and a warm pool of two pre-tuned transponders
// per node plus two pre-opened EMS sessions.
func fastSetupConfig() core.Config {
	return core.Config{
		Choreography: core.ChoreoGraph,
		PathCache:    true,
		PreArm:       core.PreArm{WarmOTsPerNode: 2, WarmSessions: 2},
	}
}

// LatencyBench measures the setup-time distributions and returns the raw
// report; LatencyN wraps it into a printable experiment Result.
func LatencyBench(seed int64, iters int) (LatencyReport, error) {
	rep := LatencyReport{PR: 6, Seed: seed, Iters: iters, Classes: map[string]LatencyClass{}}
	for _, cl := range latencyClasses {
		base, err := latencyRun(seed, iters, cl.Rate, cl.Protect, cl.Groomed, core.Config{})
		if err != nil {
			return LatencyReport{}, fmt.Errorf("latency %s baseline: %w", cl.Name, err)
		}
		fast, err := latencyRun(seed, iters, cl.Rate, cl.Protect, cl.Groomed, fastSetupConfig())
		if err != nil {
			return LatencyReport{}, fmt.Errorf("latency %s fast: %w", cl.Name, err)
		}
		c := LatencyClass{Baseline: summarize(base), Fast: summarize(fast)}
		if c.Fast.P50 > 0 {
			c.SpeedupP50 = c.Baseline.P50 / c.Fast.P50
		}
		rep.Classes[cl.Name] = c
	}
	return rep, nil
}

// LatencyN runs the benchmark and renders the before/after table.
func LatencyN(seed int64, iters int) (Result, error) {
	res := Result{ID: "latency", Paper: "PR 6: setup-latency war — graph choreography, path cache, pre-arming"}
	rep, err := LatencyBench(seed, iters)
	if err != nil {
		return Result{}, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Setup latency before/after (%d setups per class per mode, seconds)", iters),
		"class", "mode", "p50", "p95", "p99", "mean")
	for _, cl := range latencyClasses {
		c := rep.Classes[cl.Name]
		tb.Row(cl.Name, "serial", fmt.Sprintf("%.1f", c.Baseline.P50), fmt.Sprintf("%.1f", c.Baseline.P95),
			fmt.Sprintf("%.1f", c.Baseline.P99), fmt.Sprintf("%.1f", c.Baseline.Mean))
		tb.Row(cl.Name, "fast", fmt.Sprintf("%.1f", c.Fast.P50), fmt.Sprintf("%.1f", c.Fast.P95),
			fmt.Sprintf("%.1f", c.Fast.P99), fmt.Sprintf("%.1f", c.Fast.Mean))
		res.value(cl.Name+"_baseline_p50_s", c.Baseline.P50)
		res.value(cl.Name+"_fast_p50_s", c.Fast.P50)
		res.value(cl.Name+"_fast_p95_s", c.Fast.P95)
		res.value(cl.Name+"_speedup_p50", c.SpeedupP50)
	}
	res.Tables = append(res.Tables, tb)
	up := rep.Classes["unprotected"]
	res.notef("unprotected median %.1f s -> %.1f s (%.2fx); fast mode = graph choreography + path cache + pre-arm(2,2)",
		up.Baseline.P50, up.Fast.P50, up.SpeedupP50)
	return res, nil
}

// latencyRun provisions and releases iters connections of one class on a
// fresh testbed controller and returns each setup time in seconds.
func latencyRun(seed int64, iters int, rate bw.Rate, protect core.Protection, groomed bool, cfg core.Config) ([]float64, error) {
	k := sim.NewKernel(seed)
	ctrl, err := core.New(k, topo.Testbed(), cfg)
	if err != nil {
		return nil, err
	}
	if groomed {
		// Persistent warm-up circuits keep one OTN pipe per pair alive, so the
		// measured setups ride existing overlay capacity — the steady-state
		// repeat-customer case grooming is for.
		for _, p := range latencyPairs {
			_, job, err := ctrl.Connect(core.Request{
				Customer: "warmup", From: p[0], To: p[1], Rate: rate, Protect: protect,
			})
			if err != nil {
				return nil, err
			}
			k.Run()
			if job.Err() != nil {
				return nil, job.Err()
			}
		}
	}
	samples := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		p := latencyPairs[i%len(latencyPairs)]
		conn, job, err := ctrl.Connect(core.Request{
			Customer: "bench", From: p[0], To: p[1], Rate: rate, Protect: protect,
		})
		if err != nil {
			return nil, err
		}
		k.Run()
		if job.Err() != nil {
			return nil, job.Err()
		}
		samples = append(samples, conn.SetupTime().Seconds())
		if _, err := ctrl.Disconnect("bench", conn.ID); err != nil {
			return nil, err
		}
		k.Run()
	}
	return samples, nil
}

// summarize computes nearest-rank percentiles and the mean.
func summarize(samples []float64) LatencyStats {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return LatencyStats{
		P50:  nearestRank(s, 50),
		P95:  nearestRank(s, 95),
		P99:  nearestRank(s, 99),
		Mean: sum / float64(len(s)),
	}
}

// nearestRank returns the p-th percentile of sorted samples by the
// nearest-rank method.
func nearestRank(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
