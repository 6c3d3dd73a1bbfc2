package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"griphon/internal/sim"
)

func TestSpanLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)

	root := tr.Start(SpanRef{}, "op:setup")
	root.SetConn("C0000", "acme", "dwdm")
	k.After(10*time.Second, func() {})

	child := tr.StartTrack(root, "ems-session", "roadm-ems")
	k.Step() // advance to 10 s
	child.EndErr(errors.New("boom"))
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.Name != "op:setup" || r.Track != DefaultTrack || r.Parent != 0 {
		t.Errorf("root = %+v", r)
	}
	if r.Conn != "C0000" || r.Customer != "acme" || r.Layer != "dwdm" {
		t.Errorf("root attrs = %+v", r)
	}
	if r.Duration() != 10*time.Second || r.Outcome != "ok" {
		t.Errorf("root dur=%v outcome=%q", r.Duration(), r.Outcome)
	}
	if c.Parent != r.ID || c.Track != "roadm-ems" || c.Outcome != "boom" {
		t.Errorf("child = %+v", c)
	}
	if c.Start != 0 || c.End != sim.Time(10*time.Second) {
		t.Errorf("child times = %v..%v", c.Start, c.End)
	}
}

func TestSpanInheritsTrackAndDoubleEnd(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	p := tr.StartTrack(SpanRef{}, "parent", "otn-ems")
	c := tr.Start(p, "child")
	c.End()
	c.EndErr(errors.New("late")) // must not overwrite
	if got := tr.Spans()[1]; got.Track != "otn-ems" || got.Outcome != "ok" {
		t.Errorf("child = %+v", got)
	}
}

func TestOpenSpanExport(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	tr.Start(SpanRef{}, "op:restore")
	k.After(time.Minute, func() {})
	k.Step()
	s := tr.Spans()[0]
	if s.Outcome != "open" || s.End != sim.Time(time.Minute) {
		t.Errorf("open span = %+v", s)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Len() != 0 {
		t.Fatal("nil tracer should be disabled")
	}
	s := tr.Start(SpanRef{}, "x")
	s.SetConn("a", "b", "c")
	s.SetWait(time.Second)
	s.EndErr(errors.New("e"))
	s.End()
	if tr.Spans() != nil || tr.SpansNamed("x") != nil || tr.Children(1) != nil {
		t.Error("nil tracer returned spans")
	}
	tr.Reset()
}

// TestDisabledObsZeroAllocs is the PR's zero-cost-when-disabled proof: every
// obs call a hot path makes — span start/annotate/end on a nil tracer,
// counter increments, histogram observes — performs zero allocations. CI
// runs this as the allocation-regression gate.
func TestDisabledObsZeroAllocs(t *testing.T) {
	var tr *Tracer
	reg := NewRegistry()
	c := reg.Counter("c_total", "c")
	h := reg.Histogram("h_seconds", "h", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(SpanRef{}, "op:setup")
		sp.SetConn("C0001", "acme", "dwdm")
		child := tr.StartTrack(sp, "ems-cmd", "roadm-ems")
		child.SetWait(time.Second)
		child.End()
		sp.EndErr(nil)
		c.Inc()
		c.Add(2)
		h.Observe(62.5)
		h.ObserveDuration(10 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %v per op, want 0", allocs)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(5)
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments recorded values")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("griphon_setups_total", "setups", "layer", "dwdm")
	b := r.Counter("griphon_setups_total", "setups", "layer", "dwdm")
	if a != b {
		t.Error("same name+labels returned different counters")
	}
	other := r.Counter("griphon_setups_total", "setups", "layer", "otn")
	if a == other {
		t.Error("different labels returned the same counter")
	}
	a.Inc()
	if b.Value() != 1 || other.Value() != 0 {
		t.Errorf("values = %v, %v", b.Value(), other.Value())
	}
	if len(r.names) != 1 {
		t.Errorf("instruments = %d", len(r.names))
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 10, 60})
	for _, v := range []float64{0.5, 5, 5, 62.5, 700} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 773 {
		t.Errorf("count=%d sum=%v", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, "", []string{""}, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="1"} 1
lat_seconds_bucket{le="10"} 3
lat_seconds_bucket{le="60"} 3
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 773
lat_seconds_count 5
`
	if buf.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestHistogramFunc: a histogram observed outside the registry is exported
// from the copy its owner hands over at render time, and a copy does not see
// later observations.
func TestHistogramFunc(t *testing.T) {
	owned := NewHistogram([]float64{1e-4, 1e-3})
	r := NewRegistry()
	r.HistogramFunc("sync_seconds", "sync", owned.Clone)
	owned.Observe(5e-5)
	owned.Observe(2e-3)
	snap := owned.Clone()
	owned.Observe(5e-4)
	if snap.Count() != 2 || owned.Count() != 3 {
		t.Fatalf("clone count %d, owner count %d; want 2 and 3", snap.Count(), owned.Count())
	}
	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, "shard", []string{"1"}, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sync_seconds sync
# TYPE sync_seconds histogram
sync_seconds_bucket{shard="1",le="0.0001"} 1
sync_seconds_bucket{shard="1",le="0.001"} 2
sync_seconds_bucket{shard="1",le="+Inf"} 3
sync_seconds_sum{shard="1"} 0.00255
sync_seconds_count{shard="1"} 3
`
	if buf.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
	if p := r.Snapshot(); len(p) != 1 || p[0].Count != 3 || p[0].Kind != "histogram" {
		t.Errorf("snapshot = %+v", p)
	}
}

func TestPrometheusOutputOrderAndLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "last", "layer", "otn").Inc()
	r.Counter("z_total", "last", "layer", "dwdm").Add(2)
	r.GaugeFunc("a_gauge", "first", func() float64 { return 7 })
	r.GaugeFunc("m_fn", "middle", func() float64 { return 1.5 })
	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, "", []string{""}, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge first
# TYPE a_gauge gauge
a_gauge 7
# HELP m_fn middle
# TYPE m_fn gauge
m_fn 1.5
# HELP z_total last
# TYPE z_total counter
z_total{layer="dwdm"} 2
z_total{layer="otn"} 1
`
	if buf.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// mergedFixture is one shard's worth of instruments for TestMergedPrometheus:
// a counter, a labelled gauge and a histogram, their values offset by base.
func mergedFixture(base float64) *Registry {
	r := NewRegistry()
	r.Counter("ops_total", "operations").Add(base)
	r.GaugeFunc("pool_in_use", "occupancy", func() float64 { return base + 1 }, "pool", "ot")
	h := r.Histogram("lat_seconds", "latency", []float64{1, 10})
	h.Observe(base)
	h.Observe(20)
	return r
}

// TestMergedPrometheus pins the merged writer byte for byte: registries whose
// samples carry an injected label fold into one HELP/TYPE header per family,
// registry by registry; a registry with an empty label value is rendered as it
// renders alone, and merges by name with the labelled ones.
func TestMergedPrometheus(t *testing.T) {
	render := func(vals []string, regs ...*Registry) string {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteMergedPrometheus(&buf, "shard", vals, regs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	t.Run("labelled", func(t *testing.T) {
		got := render([]string{"0", "1"}, mergedFixture(0.5), mergedFixture(5))
		want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{shard="0",le="1"} 1
lat_seconds_bucket{shard="0",le="10"} 1
lat_seconds_bucket{shard="0",le="+Inf"} 2
lat_seconds_sum{shard="0"} 20.5
lat_seconds_count{shard="0"} 2
lat_seconds_bucket{shard="1",le="1"} 0
lat_seconds_bucket{shard="1",le="10"} 1
lat_seconds_bucket{shard="1",le="+Inf"} 2
lat_seconds_sum{shard="1"} 25
lat_seconds_count{shard="1"} 2
# HELP ops_total operations
# TYPE ops_total counter
ops_total{shard="0"} 0.5
ops_total{shard="1"} 5
# HELP pool_in_use occupancy
# TYPE pool_in_use gauge
pool_in_use{shard="0",pool="ot"} 1.5
pool_in_use{shard="1",pool="ot"} 6
`
		if got != want {
			t.Errorf("merged output:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		proc := NewRegistry()
		proc.Counter("encode_errors_total", "process-level").Inc()
		proc.Counter("ops_total", "operations").Add(9)
		got := render([]string{"", "0", "1"}, proc, mergedFixture(0.5), mergedFixture(5))
		want := `# HELP encode_errors_total process-level
# TYPE encode_errors_total counter
encode_errors_total 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{shard="0",le="1"} 1
lat_seconds_bucket{shard="0",le="10"} 1
lat_seconds_bucket{shard="0",le="+Inf"} 2
lat_seconds_sum{shard="0"} 20.5
lat_seconds_count{shard="0"} 2
lat_seconds_bucket{shard="1",le="1"} 0
lat_seconds_bucket{shard="1",le="10"} 1
lat_seconds_bucket{shard="1",le="+Inf"} 2
lat_seconds_sum{shard="1"} 25
lat_seconds_count{shard="1"} 2
# HELP ops_total operations
# TYPE ops_total counter
ops_total 9
ops_total{shard="0"} 0.5
ops_total{shard="1"} 5
# HELP pool_in_use occupancy
# TYPE pool_in_use gauge
pool_in_use{shard="0",pool="ot"} 1.5
pool_in_use{shard="1",pool="ot"} 6
`
		if got != want {
			t.Errorf("merged output:\n%s\nwant:\n%s", got, want)
		}
	})
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b").Add(3)
	r.GaugeFunc("a", "a", func() float64 { return 2 })
	h := r.Histogram("c_seconds", "c", nil)
	h.Observe(1)
	h.Observe(2)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d points", len(snap))
	}
	if snap[0].Name != "a" || snap[0].Value != 2 || snap[0].Kind != "gauge" {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "b_total" || snap[1].Value != 3 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
	if snap[2].Name != "c_seconds" || snap[2].Count != 2 || snap[2].Value != 3 {
		t.Errorf("snap[2] = %+v", snap[2])
	}
}

func TestWriteJSONL(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	sp := tr.Start(SpanRef{}, "op:setup")
	sp.SetConn("C0000", "acme", "dwdm")
	k.After(time.Second, func() {})
	k.Step()
	sp.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var rec jsonlSpan
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("bad jsonl: %v\n%s", err, buf.String())
	}
	if rec.Name != "op:setup" || rec.DurNS != int64(time.Second) || rec.Conn != "C0000" {
		t.Errorf("jsonl = %+v", rec)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	root := tr.Start(SpanRef{}, "op:setup")
	child := tr.StartTrack(root, "laser-tune", "roadm-ems")
	k.After(13*time.Second, func() {})
	k.Step()
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var slices, metas int
	tracks := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			tracks[ev.TID] = true
			if ev.Dur != 13e6 {
				t.Errorf("slice dur = %v µs", ev.Dur)
			}
		case "M":
			metas++
		}
	}
	if slices != 2 || metas < 3 {
		t.Errorf("slices=%d metas=%d", slices, metas)
	}
	if len(tracks) != 2 {
		t.Errorf("tracks = %v, want controller + roadm-ems", tracks)
	}
	if !strings.Contains(buf.String(), `"name":"roadm-ems"`) {
		t.Error("missing thread_name metadata for roadm-ems")
	}
}

// TestObserveN: n observations of one value land as n observations would,
// in count, bucket and sum.
func TestObserveN(t *testing.T) {
	one, many := NewHistogram([]float64{1, 10}), NewHistogram([]float64{1, 10})
	for i := 0; i < 4; i++ {
		one.Observe(5)
	}
	one.Observe(20)
	many.ObserveN(5, 4)
	many.ObserveN(20, 1)
	many.ObserveN(0.5, 0)
	if !reflect.DeepEqual(one, many) {
		t.Errorf("ObserveN = %+v, want %+v", many, one)
	}
}
