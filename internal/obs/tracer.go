// Package obs is the observability plane: a virtual-clock-aware tracer and a
// dependency-free instrument registry threaded through the whole stack. Spans
// are stamped with sim.Time — not wall time — so a trace of a 62 s wavelength
// setup renders as the paper's per-step latency ladder regardless of how fast
// the simulator executed it. Every entry point is nil-safe: with a nil Tracer
// the span calls compile down to a comparison and return, so the PR 1 hot
// paths pay nothing (zero allocations) when tracing is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"griphon/internal/sim"
)

// Clock supplies the virtual time spans are stamped with. *sim.Kernel
// implements it.
type Clock interface {
	Now() sim.Time
}

// DefaultTrack is the track (Chrome trace "thread") op-level spans land on
// when no parent supplies one.
const DefaultTrack = "controller"

// span is the tracer's internal record. IDs are 1-based indices into the
// tracer's span slice; 0 means "no span".
type span struct {
	name     string
	track    string
	parent   int32
	start    sim.Time
	end      sim.Time
	done     bool
	wait     sim.Duration
	conn     string
	customer string
	layer    string
	outcome  string
}

// Span is the exported, read-only view of one recorded span.
type Span struct {
	ID       int
	Parent   int
	Name     string
	Track    string
	Start    sim.Time
	End      sim.Time
	Wait     sim.Duration
	Conn     string
	Customer string
	Layer    string
	Outcome  string
}

// Duration returns the span's virtual-time extent.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Tracer records spans against a virtual clock. It is not safe for concurrent
// use — like the kernel it observes, it lives on the single simulation thread.
// A nil *Tracer is a valid, disabled tracer: every method is a no-op and
// Start returns the zero SpanRef.
type Tracer struct {
	clock Clock
	spans []span
}

// NewTracer returns an enabled tracer over the given clock.
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// SpanRef is a lightweight handle to an open (or finished) span. The zero
// SpanRef is valid and inert, which is what a nil tracer hands out.
type SpanRef struct {
	t  *Tracer
	id int32
}

// Active reports whether the ref points at a recorded span.
func (s SpanRef) Active() bool { return s.t != nil && s.id != 0 }

// Start opens a span under parent (zero SpanRef for a root). The track is
// inherited from the parent, or DefaultTrack at the root.
func (t *Tracer) Start(parent SpanRef, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	track := DefaultTrack
	if parent.t == t && parent.id != 0 {
		track = t.spans[parent.id-1].track
	}
	return t.StartTrack(parent, name, track)
}

// StartTrack opens a span on an explicit track (Chrome trace "thread") — the
// EMS managers use one track each so a setup renders as a step ladder across
// the controller and the vendor EMSes.
func (t *Tracer) StartTrack(parent SpanRef, name, track string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	var pid int32
	if parent.t == t {
		pid = parent.id
	}
	t.spans = append(t.spans, span{
		name:   name,
		track:  track,
		parent: pid,
		start:  t.clock.Now(),
	})
	return SpanRef{t: t, id: int32(len(t.spans))}
}

// End closes the span with outcome "ok". Ending twice or ending the zero ref
// is a no-op.
func (s SpanRef) End() { s.EndErr(nil) }

// EndErr closes the span, recording err (nil ⇒ "ok") as its outcome.
func (s SpanRef) EndErr(err error) {
	if !s.Active() {
		return
	}
	sp := &s.t.spans[s.id-1]
	if sp.done {
		return
	}
	sp.done = true
	sp.end = s.t.clock.Now()
	if err != nil {
		sp.outcome = err.Error()
	} else {
		sp.outcome = "ok"
	}
}

// EndOutcome closes the span with a free-form outcome ("blocked", "skipped").
func (s SpanRef) EndOutcome(outcome string) {
	if !s.Active() {
		return
	}
	sp := &s.t.spans[s.id-1]
	if sp.done {
		return
	}
	sp.done = true
	sp.end = s.t.clock.Now()
	sp.outcome = outcome
}

// SetConn attaches connection identity to the span.
func (s SpanRef) SetConn(conn, customer, layer string) {
	if !s.Active() {
		return
	}
	sp := &s.t.spans[s.id-1]
	sp.conn, sp.customer, sp.layer = conn, customer, layer
}

// SetWait records time the work spent queued before the span's execution
// started (EMS head-of-line blocking).
func (s SpanRef) SetWait(d sim.Duration) {
	if !s.Active() {
		return
	}
	s.t.spans[s.id-1].wait = d
}

// Spans returns a copy of every recorded span, in start order. Open spans are
// reported with End = the current clock reading and outcome "open".
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	for i := range t.spans {
		out[i] = t.export(i)
	}
	return out
}

// SpansNamed returns the recorded spans with the given name.
func (t *Tracer) SpansNamed(name string) []Span {
	var out []Span
	if t == nil {
		return nil
	}
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, t.export(i))
		}
	}
	return out
}

// Children returns the direct children of the span with the given ID.
func (t *Tracer) Children(id int) []Span {
	var out []Span
	if t == nil {
		return nil
	}
	for i := range t.spans {
		if int(t.spans[i].parent) == id {
			out = append(out, t.export(i))
		}
	}
	return out
}

// Reset discards all recorded spans.
func (t *Tracer) Reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

func (t *Tracer) export(i int) Span {
	sp := t.spans[i]
	end, outcome := sp.end, sp.outcome
	if !sp.done {
		end, outcome = t.clock.Now(), "open"
	}
	return Span{
		ID:       i + 1,
		Parent:   int(sp.parent),
		Name:     sp.name,
		Track:    sp.track,
		Start:    sp.start,
		End:      end,
		Wait:     sp.wait,
		Conn:     sp.conn,
		Customer: sp.customer,
		Layer:    sp.layer,
		Outcome:  outcome,
	}
}

// jsonlSpan is the JSONL export schema: one object per line per span.
type jsonlSpan struct {
	Shard    *int   `json:"shard,omitempty"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Track    string `json:"track"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	WaitNS   int64  `json:"wait_ns,omitempty"`
	Conn     string `json:"conn,omitempty"`
	Customer string `json:"customer,omitempty"`
	Layer    string `json:"layer,omitempty"`
	Outcome  string `json:"outcome"`
}

// WriteJSONL writes every span as one JSON object per line, tracer by tracer.
// Span ids count per tracer, so with several tracers — one per shard — every
// line carries its tracer's index as "shard".
func WriteJSONL(w io.Writer, tracers ...*Tracer) error {
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		var shard *int
		if len(tracers) > 1 {
			shard = &ti
		}
		for _, s := range t.Spans() {
			if err := enc.Encode(jsonlSpan{
				Shard:    shard,
				ID:       s.ID,
				Parent:   s.Parent,
				Name:     s.Name,
				Track:    s.Track,
				StartNS:  int64(s.Start),
				DurNS:    int64(s.Duration()),
				WaitNS:   int64(s.Wait),
				Conn:     s.Conn,
				Customer: s.Customer,
				Layer:    s.Layer,
				Outcome:  s.Outcome,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent is one trace_event record (the chrome://tracing / Perfetto
// format): complete "X" slices plus "M" metadata naming the tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders the tracer's spans as one process of a Chrome trace:
// the metadata naming the process and its tracks, then one slice per span.
func (t *Tracer) chromeEvents(pid int, process string) []chromeEvent {
	spans := t.Spans()

	// Assign stable tids: controller first, then tracks by first use.
	tids := map[string]int{DefaultTrack: 0}
	order := []string{DefaultTrack}
	for _, s := range spans {
		if _, ok := tids[s.Track]; !ok {
			tids[s.Track] = len(order)
			order = append(order, s.Track)
		}
	}

	events := make([]chromeEvent, 0, len(spans)+len(order)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": process},
	})
	for _, track := range order {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tids[track],
			Args: map[string]any{"name": track},
		})
		events = append(events, chromeEvent{
			Name: "thread_sort_index", Ph: "M", PID: pid, TID: tids[track],
			Args: map[string]any{"sort_index": tids[track]},
		})
	}
	for _, s := range spans {
		args := map[string]any{"outcome": s.Outcome}
		if s.Conn != "" {
			args["conn"] = s.Conn
		}
		if s.Customer != "" {
			args["customer"] = s.Customer
		}
		if s.Layer != "" {
			args["layer"] = s.Layer
		}
		if s.Wait > 0 {
			args["queue_wait"] = s.Wait.String()
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "griphon",
			Ph:   "X",
			TS:   float64(s.Start) / 1e3, // ns -> µs
			Dur:  float64(s.Duration()) / 1e3,
			PID:  pid,
			TID:  tids[s.Track],
			Args: args,
		})
	}
	return events
}

// WriteChromeTrace writes the spans in Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Timestamps are virtual
// microseconds since the simulation epoch. Each tracer is one process (pid =
// its index + 1) with its own tracks, named for its shard when one of several.
func WriteChromeTrace(w io.Writer, tracers ...*Tracer) error {
	var events []chromeEvent
	for ti, t := range tracers {
		process := "griphon (virtual time)"
		if len(tracers) > 1 {
			process = fmt.Sprintf("griphon shard %d (virtual time)", ti)
		}
		events = append(events, t.chromeEvents(ti+1, process)...)
	}
	// Perfetto nests same-track slices by time containment; keep events in
	// (ts, -dur) order so parents precede children deterministically.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ph != events[j].Ph {
			return events[i].Ph == "M"
		}
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Dur > events[j].Dur
	})

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// String summarizes the tracer for diagnostics.
func (t *Tracer) String() string {
	if t == nil {
		return "obs.Tracer(disabled)"
	}
	return fmt.Sprintf("obs.Tracer(%d spans)", len(t.spans))
}
