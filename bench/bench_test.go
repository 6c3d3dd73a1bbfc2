package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"griphon/internal/sim"
)

func TestScriptIsDeterminedBySeed(t *testing.T) {
	for _, w := range workloads {
		topo, err := w.topology()
		if err != nil {
			t.Fatal(err)
		}
		a := renderScript(w, topo.Sites(), 7, 2, 400)
		b := renderScript(w, topo.Sites(), 7, 2, 400)
		c := renderScript(w, topo.Sites(), 8, 2, 400)
		if len(a) == 0 {
			t.Fatalf("%s: empty script", w.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different scripts", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
	}
}

func TestClientsShareNoTenant(t *testing.T) {
	for _, w := range workloads {
		topo, err := w.topology()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for c := 0; c < 2; c++ {
			for _, tn := range newScript(w, topo.Sites(), 1, c, 2).tenants {
				if other, dup := seen[tn]; dup {
					t.Fatalf("%s: tenant %d belongs to clients %d and %d", w.name, tn, other, c)
				}
				seen[tn] = c
			}
		}
		if len(seen) != w.tenants {
			t.Errorf("%s: clients cover %d of %d tenants", w.name, len(seen), w.tenants)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n          int
		want       float64
		pct, value float64
	}{
		{20000, 99.9, 99.9, 19980}, // 20 beyond
		{5000, 99.9, 99, 4950},     // 5 beyond p99.9, 50 beyond p99
		{1000, 99, 99, 990},        // exactly 10 beyond
		{999, 99, 95, 950},         // 9 beyond p99
		{150, 99, 90, 135},         // 15 beyond p90, 7 beyond p95
		{30, 99, 50, 15},           // 7 beyond p75
		{5, 99, 50, 3},             // the median is always reported
		{20000, 95, 95, 19000},     // never above what was asked for
	} {
		pct, value := supportedTail(ramp(tc.n), tc.want)
		if pct != tc.pct || value != tc.value {
			t.Errorf("n=%d want p%g: got p%g = %g, want p%g = %g", tc.n, tc.want, pct, value, tc.pct, tc.value)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
}

func TestParseProc(t *testing.T) {
	// comm holds a space and a parenthesis, as a process may name itself.
	stat := []byte("4242 (grip hond) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 5555 123456789 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ticks, err := parseProcStat(stat)
	if err != nil || ticks != 1000 {
		t.Errorf("parseProcStat = %d, %v; want 1000 ticks", ticks, err)
	}
	if _, err := parseProcStat([]byte("42 (x) S 1 2")); err == nil {
		t.Error("parseProcStat accepted a truncated line")
	}
	status := []byte("Name:\tgriphond\nVmPeak:\t 1300000 kB\nVmHWM:\t   21508 kB\nVmRSS:\t   20000 kB\n")
	kb, err := parseVmHWM(status)
	if err != nil || kb != 21508 {
		t.Errorf("parseVmHWM = %d, %v; want 21508", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM found a peak in a status without one")
	}
}

func TestParseProm(t *testing.T) {
	text := []byte(`# HELP griphon_setups_total Setups.
# TYPE griphon_setups_total counter
griphon_setups_total{layer="dwdm",outcome="ok"} 3
griphon_setups_total{layer="dwdm",outcome="failed"} 1
griphon_setups_total{layer="otn",outcome="ok"} 40
griphon_journal_appends_total{shard="0"} 10
griphon_journal_appends_total{shard="1"} 12
griphon_sim_virtual_seconds 97.800142877
griphon_setup_seconds_bucket{layer="otn",le="+Inf"} 40
`)
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"griphon_setups_total", nil, 44},
		{"griphon_setups_total", []string{`outcome="ok"`}, 43},
		{"griphon_setups_total", []string{`layer="dwdm"`, `outcome="ok"`}, 3},
		{"griphon_journal_appends_total", nil, 22},
		{"griphon_sim_virtual_seconds", nil, 97.800142877},
		{"griphon_absent_total", nil, 0},
	} {
		if got := p.sum(tc.name, tc.labels...); got != tc.want {
			t.Errorf("sum(%s, %v) = %g, want %g", tc.name, tc.labels, got, tc.want)
		}
	}
	for _, bad := range []string{"griphon_x", "griphon_x{a=\"b\" 1", "griphon_x one"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm accepted %q", bad)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("test", sim.NewStopwatch())
	tr.on = true
	op := tr.beginOp(0, classMut)
	outer := tr.begin("http.transport", op)
	inner := tr.begin("api.handler", outer)
	tr.end(inner)
	tr.end(outer)
	tr.end(op)
	// Fix the clock readings so the arithmetic is exact.
	tr.spans[op].start, tr.spans[op].end = 0, 100
	tr.spans[outer].start, tr.spans[outer].end = 10, 90
	tr.spans[inner].start, tr.spans[inner].end = 30, 60
	tot := tr.totals()
	if got := tot["http.transport"][classMut]; got.total != 80 || got.self != 50 || got.n != 1 {
		t.Errorf("http.transport totals = %+v, want total 80 self 50 n 1", got)
	}
	if got := tot["op"][classMut].self; got != 20 {
		t.Errorf("op self = %d, want 20", got)
	}
	var off *tracer
	if sp := off.beginOp(0, classRead); sp != -1 || off.begin("x", sp) != -1 {
		t.Error("a nil tracer must record nothing")
	}
	off.end(-1)
}

// TestBenchmarkFile holds BENCHMARK.json against the program: the same
// workloads with the same reasons, the same metrics with the same units.
func TestBenchmarkFile(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, file []boundedMetric, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range prog {
			if file[i].Name != m.Name || file[i].Unit != m.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, file[i].Name, file[i].Unit, m.Name, m.Unit)
			}
			if b := file[i].Better; b != "lower" && b != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, b)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs what -smoke runs: every workload at about 200 requests
// against one spawned daemon, then the traced run. Every metric BENCHMARK.json
// lists must come out, no more and no fewer, and nothing may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns griphond")
	}
	if runtime.GOOS != "linux" {
		t.Skip("daemon CPU and memory are read from /proc")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h, err := newHarness(root, dir, filepath.Join(dir, "work"), 1)
	if err != nil {
		t.Fatal(err)
	}
	h.ops, h.restarts = smokeOps, 1
	sw := sim.NewStopwatch()
	for _, w := range smokeSized(workloads) {
		e2e, err := h.endToEnd(w, 1)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		layers, _, err := h.traced(w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, tc := range []struct {
			res  *result
			want []metricSpec
		}{{e2e, endToEndMetrics}, {layers, perLayerMetrics}} {
			if !tc.res.Correct || tc.res.Failed != 0 || tc.res.Attempted < smokeOps {
				t.Errorf("%s: correct=%t attempted=%d failed=%d: %v", w.name, tc.res.Correct, tc.res.Attempted, tc.res.Failed, tc.res.err)
			}
			var got, want []string
			for n := range tc.res.Metrics {
				got = append(got, n)
			}
			for _, m := range tc.want {
				want = append(want, m.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Errorf("%s: %d metrics out, %d declared", w.name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: metric %q out where %q is declared", w.name, got[i], want[i])
				}
			}
		}
		for _, m := range endToEndMetrics {
			if v := e2e.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g; it must never be 0", w.name, m.Name, v)
			}
		}
	}
	t.Logf("smoke run took %s", sw.Elapsed().Round(1e6))
}
