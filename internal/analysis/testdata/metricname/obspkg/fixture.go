package fixture

import "griphon/internal/obs"

// Checked under griphon/internal/obs/...: the registry's own package tests
// instrument mechanics with minimal names, and the naming scheme does not
// apply there.
func register(r *obs.Registry) {
	r.Counter("c_total", "mechanics")
	r.GaugeFunc("g", "mechanics", func() float64 { return 0 })
}
