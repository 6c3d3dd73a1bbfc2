// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the extension/ablation studies listed in DESIGN.md §4.
// Each experiment is a pure function of a seed, returning printable tables
// and series together with structured values the benchmark suite asserts on.
// The cmd/griphon-bench binary prints them; bench_test.go times them.
package experiments

import (
	"fmt"
	"sort"

	"griphon/internal/metrics"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (DESIGN.md §4).
	ID string
	// Paper names the artifact reproduced ("Table 2", "Fig. 3", ...).
	Paper string
	// Tables and Series are the printable outputs.
	Tables []*metrics.Table
	Series []*metrics.Series
	// Notes hold free-form commentary (paper-vs-measured).
	Notes []string
	// Values exposes named scalar results for programmatic checks.
	Values map[string]float64
	// Artifacts holds named file payloads an experiment produces on failure
	// (e.g. the chaos soak's flight-recorder dump); cmd/griphon-bench writes
	// them to disk.
	Artifacts map[string][]byte
}

func (r *Result) value(name string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[name] = v
}

func (r *Result) artifact(name string, b []byte) {
	if r.Artifacts == nil {
		r.Artifacts = map[string][]byte{}
	}
	r.Artifacts[name] = b
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full experiment output.
func (r Result) String() string {
	s := fmt.Sprintf("=== %s (%s) ===\n", r.ID, r.Paper)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, se := range r.Series {
		s += se.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Spec describes a runnable experiment.
type Spec struct {
	ID    string
	Paper string
	Run   func(seed int64) (Result, error)
}

// All lists every experiment in DESIGN.md §4 order.
var All = []Spec{
	{ID: "table2", Paper: "Table 2: establishment time vs path length", Run: Table2},
	{ID: "table1", Paper: "Table 1: BoD vision vs today vs GRIPhoN", Run: Table1},
	{ID: "setup-teardown", Paper: "§3: setup 60-70 s, teardown ~10 s", Run: SetupTeardown},
	{ID: "fig1", Paper: "Fig. 1: current services & network layers", Run: Fig1},
	{ID: "fig2", Paper: "Fig. 2: future services & rate placement", Run: Fig2},
	{ID: "fig3", Paper: "Fig. 3: BoD architecture / composite bandwidth", Run: Fig3},
	{ID: "fig4", Paper: "Fig. 4: GRIPhoN testbed", Run: Fig4},
	{ID: "restoration", Paper: "extension: restoration outage by scheme", Run: Restoration},
	{ID: "bridge-roll", Paper: "extension: bridge-and-roll vs unplanned hit", Run: BridgeRoll},
	{ID: "blocking", Paper: "ablation: blocking vs load, shared vs dedicated OTs", Run: Blocking},
	{ID: "bulk", Paper: "extension: bulk transfer completion by approach", Run: Bulk},
	{ID: "otn-restore", Paper: "extension: OTN shared mesh vs wavelength restoration", Run: OTNRestore},
	{ID: "regroom", Paper: "extension: re-grooming gains", Run: Regroom},
	{ID: "rwa-ablation", Paper: "ablation: wavelength assignment policies", Run: RWAAblation},
	{ID: "planning", Paper: "§4 resource planning: Erlang-B pool sizing, validated by simulation", Run: Planning},
	{ID: "defrag", Paper: "§4 extension: spectrum defragmentation after churn", Run: Defrag},
	{ID: "trace", Paper: "extension: restoration timeline rebuilt from the span recorder", Run: Trace},
	{ID: "scale", Paper: "§1 carrier scale: 64-node grid, a month of churn + failure storm", Run: Scale},
	{ID: "latency", Paper: "PR 6: setup-latency war — graph choreography, path cache, pre-arming", Run: Latency},
	{ID: "chaos", Paper: "§2.2/§3 extension: fault-model soak with invariant audit", Run: Chaos},
	{ID: "crashrec", Paper: "§2.2 extension: WAL crash injection with shadow-state diff", Run: CrashRec},
}

// Find returns the spec with the given ID.
func Find(id string) (Spec, error) {
	for _, s := range All {
		if s.ID == id {
			return s, nil
		}
	}
	var ids []string
	for _, s := range All {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return Spec{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
