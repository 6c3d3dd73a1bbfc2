package main

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"

	"griphon/internal/sim"
)

const (
	classMut  = 0
	classRead = 1
)

// span is one timed interval recorded from bench's own files, around a call
// into a layer. Spans of one request share op; parent is the span that caused
// this one (-1 for the request's root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's stopwatch started
	parent     int32
	op         int32
	track      int32 // client id, one Chrome-trace thread each
	class      int8
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing: begin returns -1 and end ignores it, so the end-to-end runs share
// the client code with tracing off.
type tracer struct {
	pass string
	sw   *sim.Stopwatch
	// on gates recording: set-up and warm-up traffic is not traced.
	on bool

	mu    sync.Mutex
	spans []span
	ops   int32
}

func newTracer(pass string, sw *sim.Stopwatch) *tracer {
	return &tracer{pass: pass, sw: sw}
}

// beginOp opens the root span of a new request.
func (t *tracer) beginOp(track int, class int8) int32 {
	if t == nil || !t.on {
		return -1
	}
	now := t.sw.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: "op", start: now, parent: -1, op: t.ops, track: int32(track), class: class})
	t.ops++
	return int32(len(t.spans) - 1)
}

// begin opens a span caused by parent.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || parent < 0 {
		return -1
	}
	now := t.sw.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: p.op, track: p.track, class: p.class})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := t.sw.Elapsed()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// spanTotals is the summed duration, summed self time and count of the spans
// of one name and class.
type spanTotals struct {
	total, self time.Duration
	n           int
}

// spanSums holds the totals per span name, indexed by class.
type spanSums map[string]*[2]spanTotals

// of returns the totals of one name; zeros when no such span was recorded.
func (t spanSums) of(name string) [2]spanTotals {
	if e := t[name]; e != nil {
		return *e
	}
	return [2]spanTotals{}
}

// count is how many spans of one name were recorded, both classes.
func (t spanSums) count(name string) int {
	e := t.of(name)
	return e[classMut].n + e[classRead].n
}

// meanMs is the mean duration in ms of the spans of one name, both classes.
func (t spanSums) meanMs(name string) float64 {
	e := t.of(name)
	return ratio(ms(e[classMut].total+e[classRead].total), float64(t.count(name)))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totals sums spans by name and class. A span's self time is its duration
// minus its children's; children here never overlap one another.
func (t *tracer) totals() spanSums {
	out := spanSums{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		e := out[s.name]
		if e == nil {
			e = new([2]spanTotals)
			out[s.name] = e
		}
		d := s.end - s.start
		e[s.class].total += d
		e[s.class].self += d - child[i]
		e[s.class].n++
	}
	return out
}

// writeChrome appends the pass's spans as Chrome trace_event objects (complete
// events, microseconds), one process per pass and one thread per client.
func (t *tracer) writeChrome(w *bufio.Writer, pid int, first *bool) {
	if t == nil {
		return
	}
	sep := func() {
		if !*first {
			w.WriteString(",\n")
		}
		*first = false
	}
	sep()
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid, t.pass)
	for _, s := range t.spans {
		sep()
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%d}}`,
			s.name, pid, s.track,
			float64(s.start)/float64(time.Microsecond), float64(s.end-s.start)/float64(time.Microsecond),
			s.op, s.parent)
	}
}

// writeTrace writes every pass's spans as one Chrome trace_event JSON file.
func writeTrace(out io.Writer, passes []*tracer) error {
	w := bufio.NewWriter(out)
	w.WriteString("{\"traceEvents\":[\n")
	first := true
	for i, t := range passes {
		t.writeChrome(w, i+1, &first)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
