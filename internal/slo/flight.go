package slo

import (
	"encoding/json"
	"io"

	"griphon/internal/alarms"
	"griphon/internal/obs"
	"griphon/internal/sim"
)

// EventRecord is one controller event captured by the flight recorder.
type EventRecord struct {
	At   sim.Time `json:"at"`
	Conn string   `json:"conn,omitempty"`
	Kind string   `json:"kind"`
	Text string   `json:"text"`
}

// CommitRecord is one journal commit point: the reason plus the serialized
// commit set, captured even when no journal is attached.
type CommitRecord struct {
	At     sim.Time        `json:"at"`
	Reason string          `json:"reason"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// SpanRecord is one completed span pulled from the tracer at dump time.
type SpanRecord struct {
	Name    string   `json:"name"`
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Conn    string   `json:"conn,omitempty"`
	Outcome string   `json:"outcome,omitempty"`
}

// Dump is the flight recorder's crash artifact: the bounded tails of recent
// events, commit records and alarm groups, plus the audit findings (or soak
// failure text) that triggered it.
type Dump struct {
	Reason   string         `json:"reason"`
	At       sim.Time       `json:"at"`
	Findings []string       `json:"findings,omitempty"`
	Events   []EventRecord  `json:"events,omitempty"`
	Commits  []CommitRecord `json:"commits,omitempty"`
	Alarms   []alarms.Group `json:"alarm_groups,omitempty"`
	Spans    []SpanRecord   `json:"spans,omitempty"`
	Outages  []Outage       `json:"open_outages,omitempty"`
}

// ring is a bounded FIFO over T.
type ring[T any] struct {
	cap     int
	items   []T
	dropped uint64
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{cap: capacity}
}

func (r *ring[T]) push(v T) {
	r.items = append(r.items, v)
	if len(r.items) > r.cap {
		evict := len(r.items) - r.cap
		r.dropped += uint64(evict)
		r.items = append(r.items[:0:0], r.items[evict:]...)
	}
}

func (r *ring[T]) tail() []T { return append([]T(nil), r.items...) }

// FlightRecorder keeps bounded rings of the controller's recent events,
// journal commit records and alarm groups, so that when an invariant audit
// finds something (or the chaos soak fails) the last moments before the
// anomaly can be dumped to JSON — a black box for a deterministic simulator.
type FlightRecorder struct {
	events  ring[EventRecord]
	commits ring[CommitRecord]
	groups  ring[alarms.Group]
	spans   func() []SpanRecord
	ledger  *Ledger
	dumps   uint64
}

// NewFlightRecorder returns a recorder retaining at most capacity records per
// stream, registering depth/drop instruments in reg (nil skips them).
func NewFlightRecorder(capacity int, reg *obs.Registry) *FlightRecorder {
	fr := &FlightRecorder{
		events:  newRing[EventRecord](capacity),
		commits: newRing[CommitRecord](capacity),
		groups:  newRing[alarms.Group](capacity),
	}
	if reg != nil {
		reg.GaugeFunc("griphon_flight_records",
			"Records currently retained by the flight recorder across streams.",
			func() float64 {
				return float64(len(fr.events.items) + len(fr.commits.items) + len(fr.groups.items))
			})
		reg.CounterFunc("griphon_flight_dropped_total",
			"Records evicted from the flight recorder's bounded rings.",
			func() float64 {
				return float64(fr.events.dropped + fr.commits.dropped + fr.groups.dropped)
			})
		reg.CounterFunc("griphon_flight_dumps_total",
			"Flight-recorder dumps taken.",
			func() float64 { return float64(fr.dumps) })
	}
	return fr
}

// AttachLedger wires the availability ledger in so dumps include open outages.
func (fr *FlightRecorder) AttachLedger(l *Ledger) { fr.ledger = l }

// AttachSpans wires a span-tail source (called at dump time).
func (fr *FlightRecorder) AttachSpans(fn func() []SpanRecord) { fr.spans = fn }

// Event records one controller event.
func (fr *FlightRecorder) Event(at sim.Time, conn, kind, text string) {
	fr.events.push(EventRecord{At: at, Conn: conn, Kind: kind, Text: text})
}

// Commit records one journal commit point.
func (fr *FlightRecorder) Commit(at sim.Time, reason string, data json.RawMessage) {
	fr.commits.push(CommitRecord{At: at, Reason: reason, Data: data})
}

// AlarmGroup records one correlated alarm group.
func (fr *FlightRecorder) AlarmGroup(g alarms.Group) { fr.groups.push(g) }

// Snapshot assembles a dump of the current tails. reason says what tripped it;
// findings carries the audit findings or soak failure lines.
func (fr *FlightRecorder) Snapshot(reason string, at sim.Time, findings []string) Dump {
	fr.dumps++
	d := Dump{
		Reason:   reason,
		At:       at,
		Findings: findings,
		Events:   fr.events.tail(),
		Commits:  fr.commits.tail(),
		Alarms:   fr.groups.tail(),
	}
	if fr.spans != nil {
		d.Spans = fr.spans()
	}
	if fr.ledger != nil {
		d.Outages = fr.ledger.openOutageList()
	}
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
