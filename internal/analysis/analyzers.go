package analysis

// All returns the full suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Emslayer,
		Journaled,
		Leakpath,
		Loopblock,
		Metricname,
		Spanpair,
		Suppress,
		Txnrollback,
		Wallclock,
	}
}
