package fixture

import "griphon/internal/obs"

func register(r *obs.Registry, suffix string) {
	r.Counter("requests_"+suffix, "dynamic name")                      // want `must be a string literal`
	r.Counter("setupsTotal", "camel case")                             // want `must be griphon_-prefixed snake_case`
	r.Counter("griphon_setups", "missing suffix")                      // want `counter "griphon_setups" must end in _total`
	r.GaugeFunc("griphon_conns_total", "gauge as counter", nil)        // want `gauge "griphon_conns_total" must not end in _total`
	r.Histogram("griphon_setup_latency", "no unit", nil)               // want `histogram "griphon_setup_latency" must end in a unit suffix`
	r.HistogramFunc("griphon_sync_latency", "no unit", nil)            // want `histogram "griphon_sync_latency" must end in a unit suffix`
	r.Counter("griphon_blocked_total", "bad label", "Reason", "route") // want `label key "Reason" must be lower snake_case`
	r.Counter("griphon_rolls_total", "odd labels", "layer")            // want `label arguments must be key/value pairs`
}
