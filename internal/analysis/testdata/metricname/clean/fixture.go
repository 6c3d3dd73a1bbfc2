package fixture

import "griphon/internal/obs"

// Conforming registrations: constant griphon_ snake_case names, counters end
// _total, histograms carry a unit suffix, label keys are snake_case pairs.
func register(r *obs.Registry) {
	r.Counter("griphon_setups_total", "Connection setups.", "layer", "och")
	r.CounterFunc("griphon_sim_events_total", "Kernel events.", func() float64 { return 0 })
	r.GaugeFunc("griphon_connections", "Connections in service.", func() float64 { return 0 })
	r.Histogram("griphon_setup_seconds", "Setup latency.", obs.DefaultLatencyBuckets())
	r.Histogram("griphon_frame_bytes", "Frame sizes.", []float64{64, 1500})
	r.HistogramFunc("griphon_journal_sync_records", "Records per sync.", func() *obs.Histogram { return nil })
}
