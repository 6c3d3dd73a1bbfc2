package main

import (
	"math"
	"runtime/metrics"

	"griphon/internal/obs"
)

// schedLatencyBounds are the buckets the runtime's scheduling-latency
// histogram is folded into: from a goroutine woken on an idle P (about a
// microsecond) to one queued behind a long stretch of work (100 ms).
var schedLatencyBounds = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2, 0.1}

// registerRuntime exports the Go runtime's view of the daemon process into
// the process-level registry. Each value is read from runtime/metrics when
// /metrics renders, so requests pay nothing for them.
func registerRuntime(m *obs.Registry) {
	m.GaugeFunc("griphon_go_gomaxprocs", "Ps the Go scheduler runs goroutines on (GOMAXPROCS).",
		readRuntime("/sched/gomaxprocs:threads"))
	m.GaugeFunc("griphon_go_goroutines", "Live goroutines.",
		readRuntime("/sched/goroutines:goroutines"))
	m.CounterFunc("griphon_go_gc_cpu_seconds_total", "CPU time the garbage collector has used, as the Go runtime estimates it.",
		readRuntime("/cpu/classes/gc/total:cpu-seconds"))
	m.HistogramFunc("griphon_go_sched_latency_seconds",
		"Wall time goroutines spent runnable before they ran, folded from the Go runtime's finer histogram; the sum counts each runtime bucket at its midpoint.",
		schedLatency)
}

// readRuntime returns a reader of one scalar runtime metric.
func readRuntime(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch v := s[0].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
}

// schedLatency folds the runtime's /sched/latencies histogram into
// schedLatencyBounds, each runtime bucket at its midpoint (an unbounded one at
// its finite edge).
func schedLatency() *obs.Histogram {
	h := obs.NewHistogram(schedLatencyBounds)
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return h
	}
	rh := s[0].Value.Float64Histogram()
	for i, n := range rh.Counts {
		if n == 0 {
			continue
		}
		lo, hi := rh.Buckets[i], rh.Buckets[i+1]
		v := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			v = hi
		} else if math.IsInf(hi, 1) {
			v = lo
		}
		h.ObserveN(v, n)
	}
	return h
}
