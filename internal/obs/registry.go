package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"griphon/internal/sim"
)

// Registry is a dependency-free catalog of counters, gauges and virtual-time
// histograms, exportable in Prometheus text format. Like the tracer it is
// single-threaded by design. Instruments are get-or-create: asking twice for
// the same name+labels returns the same instrument, which is how the
// experiments harness reads the controller's own tallies instead of keeping
// ad-hoc ones.
//
// Instrument updates never allocate: counters are field updates, histograms
// index a fixed bucket array, and gauges are functions read at export. Only
// registration (done once, at construction) allocates.
type Registry struct {
	families map[string]*family
	names    []string
}

// family groups every child (label combination) of one metric name.
type family struct {
	help, kind string
	children   []child
	byLabels   map[string]int
}

type child struct {
	labels string // rendered {k="v",...} block, "" for unlabeled
	c      *Counter
	h      *Histogram
	hfn    func() *Histogram
	fn     func() float64
}

// histogram returns the child's histogram, reading a HistogramFunc's owner
// now; nil if the child is not a histogram.
func (ch child) histogram() *Histogram {
	if ch.hfn != nil {
		return ch.hfn()
	}
	return ch.h
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelBlock renders k/v pairs as a deterministic Prometheus label block.
func labelBlock(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %v", labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) family(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{help: help, kind: kind, byLabels: map[string]int{}}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	return f
}

func (f *family) child(labels string) (int, bool) {
	i, ok := f.byLabels[labels]
	return i, ok
}

func (f *family) add(labels string, ch child) int {
	ch.labels = labels
	f.children = append(f.children, ch)
	f.byLabels[labels] = len(f.children) - 1
	return len(f.children) - 1
}

// Counter is a monotonically increasing count. A nil *Counter is valid and
// inert.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (d must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Counter returns (creating if needed) the counter with the given name and
// label pairs ("k1", "v1", "k2", "v2", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, "counter")
	lb := labelBlock(labels)
	if i, ok := f.child(lb); ok {
		return f.children[i].c
	}
	c := &Counter{}
	f.add(lb, child{c: c})
	return c
}

// CounterFunc registers a counter whose value is computed at export time —
// for monotone values a component already tracks (EMS served commands, kernel
// events processed).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	f := r.family(name, help, "counter")
	lb := labelBlock(labels)
	if _, ok := f.child(lb); ok {
		return
	}
	f.add(lb, child{fn: fn})
}

// GaugeFunc registers a gauge computed at export time — occupancy figures the
// controller can derive from live state (spectrum usage, pool occupancy,
// queue depth) without bookkeeping on the hot path.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.family(name, help, "gauge")
	lb := labelBlock(labels)
	if _, ok := f.child(lb); ok {
		return
	}
	f.add(lb, child{fn: fn})
}

// DefaultLatencyBuckets spans the latency regimes the paper measures: OTN
// shared-mesh restoration (sub-second), wavelength teardown (~10 s),
// wavelength setup (~60-70 s) and DWDM restoration (minutes).
func DefaultLatencyBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 20, 30, 45, 60, 75, 90, 120, 180, 300, 600}
}

// Histogram is a fixed-bucket histogram of observations: virtual seconds for
// the controller's own instruments, wall seconds or counts where a component
// such as the journal times real I/O. A nil *Histogram is valid and inert;
// Observe never allocates.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last bucket is +Inf
	sum    float64
	n      uint64
}

// NewHistogram returns a histogram with the given bucket upper bounds that
// belongs to no registry: for a component that observes on its own
// goroutines under its own lock and exports copies through HistogramFunc.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Clone returns a copy of h that later observations on h do not touch.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return &c
}

// Observe records v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v: how a histogram kept elsewhere at a
// finer resolution, such as one of the Go runtime's, is re-bucketed.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.sum += v * float64(n)
	h.n += n
}

// ObserveDuration records a virtual duration.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Histogram returns (creating if needed) a histogram with the given bucket
// upper bounds (nil ⇒ DefaultLatencyBuckets) and labels.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	f := r.family(name, help, "histogram")
	lb := labelBlock(labels)
	if i, ok := f.child(lb); ok {
		return f.children[i].h
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	h := NewHistogram(bounds)
	f.add(lb, child{h: h})
	return h
}

// HistogramFunc registers a histogram read at export time: fn returns a copy
// of one its owner observes outside the registry's single thread, such as the
// journal's sync timings, taken under the owner's lock.
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram, labels ...string) {
	f := r.family(name, help, "histogram")
	lb := labelBlock(labels)
	if _, ok := f.child(lb); ok {
		return
	}
	f.add(lb, child{hfn: fn})
}

// MetricPoint is one exported sample in a registry snapshot.
type MetricPoint struct {
	Name   string
	Labels string
	Kind   string // "counter" | "gauge" | "histogram"
	Value  float64
	Count  uint64 // histogram observations
}

// Snapshot returns every instrument's current value, sorted by name then
// labels — the programmatic view the experiments harness asserts on.
func (r *Registry) Snapshot() []MetricPoint {
	var out []MetricPoint
	for _, name := range r.names {
		f := r.families[name]
		idx := sortedChildren(f)
		for _, i := range idx {
			ch := f.children[i]
			p := MetricPoint{Name: name, Labels: ch.labels, Kind: f.kind}
			switch h := ch.histogram(); {
			case ch.c != nil:
				p.Value = ch.c.Value()
			case h != nil:
				p.Value = h.Sum()
				p.Count = h.Count()
			case ch.fn != nil:
				p.Value = ch.fn()
			}
			out = append(out, p)
		}
	}
	return out
}

func sortedChildren(f *family) []int {
	idx := make([]int, len(f.children))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return f.children[idx[a]].labels < f.children[idx[b]].labels
	})
	return idx
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// mergeLE inserts an le label into an existing label block.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
