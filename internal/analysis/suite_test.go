package analysis_test

import (
	"testing"

	"griphon/internal/analysis"
	"griphon/internal/analysis/analysistest"
)

// Each analyzer runs over at least one flagging and one non-flagging fixture.
// The package path a fixture is checked under is part of the test: it is how
// the path-scoped exemptions (sim for wallclock, core for emslayer, obs for
// metricname) get exercised from both sides.

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/flag", "example/fixture")
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/clean", "example/fixture")
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/sim", "griphon/internal/sim/fixture")
	// The durable state store does real file I/O but earns no clock
	// exemption: journal records carry virtual time or replay diverges.
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/journal", "griphon/internal/journal/fixture")
	// The background segment compactor does file I/O on a goroutine but may
	// not pace or age anything off the host clock: retention keys off
	// sequence numbers so replayed directories compact like live ones.
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/compactor", "griphon/internal/journal/fixture")
	// sim.Graph node closures run on the virtual clock; choreography code
	// (which lives outside the sim exemption) must not smuggle the host
	// clock into a node body.
	analysistest.Run(t, analysis.Wallclock, "testdata/wallclock/graph", "griphon/internal/core/fixture")
}

func TestSpanpair(t *testing.T) {
	analysistest.Run(t, analysis.Spanpair, "testdata/spanpair/flag", "example/fixture")
	analysistest.Run(t, analysis.Spanpair, "testdata/spanpair/clean", "example/fixture")
}

func TestTxnrollback(t *testing.T) {
	analysistest.Run(t, analysis.Txnrollback, "testdata/txnrollback/flag", "griphon/internal/core")
	analysistest.Run(t, analysis.Txnrollback, "testdata/txnrollback/clean", "griphon/internal/core")
}

func TestEmslayer(t *testing.T) {
	analysistest.Run(t, analysis.Emslayer, "testdata/emslayer/flag", "example/fixture")
	analysistest.Run(t, analysis.Emslayer, "testdata/emslayer/clean", "griphon/internal/core/fixture")
}

func TestMetricname(t *testing.T) {
	analysistest.Run(t, analysis.Metricname, "testdata/metricname/flag", "example/fixture")
	analysistest.Run(t, analysis.Metricname, "testdata/metricname/clean", "example/fixture")
	analysistest.Run(t, analysis.Metricname, "testdata/metricname/obspkg", "griphon/internal/obs/fixture")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.Determinism, "testdata/determinism/flag", "example/fixture")
	analysistest.Run(t, analysis.Determinism, "testdata/determinism/clean", "example/fixture")
	// The API's responses and the journal's records are appended by hand: a
	// call into internal/jsonenc, or to an appender of internal/api, is an
	// ordered sink like an encoding/json call.
	analysistest.Run(t, analysis.Determinism, "testdata/determinism/apiflag", "griphon/internal/api")
	analysistest.Run(t, analysis.Determinism, "testdata/determinism/apiclean", "griphon/internal/api")
}

func TestJournaled(t *testing.T) {
	analysistest.Run(t, analysis.Journaled, "testdata/journaled/flag", "griphon/internal/core")
	analysistest.Run(t, analysis.Journaled, "testdata/journaled/clean", "griphon/internal/core")
}

func TestLeakpath(t *testing.T) {
	analysistest.Run(t, analysis.Leakpath, "testdata/leakpath/flag", "griphon/internal/core")
	analysistest.Run(t, analysis.Leakpath, "testdata/leakpath/clean", "griphon/internal/core")
}

func TestLoopblock(t *testing.T) {
	analysistest.Run(t, analysis.Loopblock, "testdata/loopblock/flag", "griphon/internal/core")
	analysistest.Run(t, analysis.Loopblock, "testdata/loopblock/clean", "griphon/internal/core")
}

func TestSuppress(t *testing.T) {
	analysistest.Run(t, analysis.Suppress, "testdata/suppress/flag", "example/fixture")
	analysistest.Run(t, analysis.Suppress, "testdata/suppress/clean", "example/fixture")
}
