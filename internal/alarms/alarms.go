// Package alarms implements GRIPhoN's fault pipeline: alarm events raised by
// network elements, a correlation window that batches the alarm storm a fiber
// cut produces, and localization that maps alarmed connections back to the
// failed link (paper §2.2: the controller handles "failure detection,
// localization and automated restorations").
package alarms

import (
	"fmt"
	"sort"

	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Type classifies an alarm.
type Type int

const (
	// LOS is loss of signal at a terminating or intermediate port.
	LOS Type = iota
	// LOF is loss of frame (digital layers).
	LOF
	// EquipmentFail is a transponder/regenerator hardware failure.
	EquipmentFail
)

func (t Type) String() string {
	switch t {
	case LOS:
		return "LOS"
	case LOF:
		return "LOF"
	case EquipmentFail:
		return "EQPT"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Alarm is one event raised by a network element.
type Alarm struct {
	// At is when the element raised it.
	At sim.Time
	// Node is the reporting element's location.
	Node topo.NodeID
	// Conn is the affected connection's ID ("" for connection-less
	// equipment alarms).
	Conn string
	// Customer owns the affected connection ("" for connection-less or
	// carrier-internal alarms). Customer-facing streams filter on it.
	Customer string
	// Type classifies the alarm.
	Type Type
	// Detail is free-form context for operators.
	Detail string
}

func (a Alarm) String() string {
	return fmt.Sprintf("[%v] %s at %s conn=%s %s", a.At, a.Type, a.Node, a.Conn, a.Detail)
}

// Correlator batches the alarms of one failure event. A fiber cut makes every
// connection on the fiber alarm within milliseconds of each other; operating
// on them one-by-one would trigger one localization per alarm. The correlator
// opens a window at the first alarm and hands the whole batch to the sink
// when it closes.
type Correlator struct {
	k      *sim.Kernel
	window sim.Duration
	sink   func([]Alarm)

	pending []Alarm
	timer   *sim.Timer
	batches int
}

// NewCorrelator returns a correlator feeding batches to sink after window.
func NewCorrelator(k *sim.Kernel, window sim.Duration, sink func([]Alarm)) *Correlator {
	if sink == nil {
		panic("alarms: nil sink")
	}
	return &Correlator{k: k, window: window, sink: sink}
}

// Observe feeds one alarm in. The first alarm of a batch opens the window.
func (c *Correlator) Observe(a Alarm) {
	c.pending = append(c.pending, a)
	if c.timer == nil {
		c.timer = c.k.After(c.window, c.flush)
	}
}

func (c *Correlator) flush() {
	batch := c.pending
	c.pending = nil
	c.timer = nil
	c.batches++
	c.sink(batch)
}

// Candidate is a suspect link produced by localization.
type Candidate struct {
	Link topo.LinkID
	// Score is the number of alarmed connections whose path crosses the
	// link; the true failed link scores highest.
	Score int
}

// Localize identifies suspect links from the paths of alarmed connections,
// exonerating links still carrying healthy connections. It returns candidates
// ranked by score (descending), ties broken by link ID. With a single fiber
// cut and at least one alarmed connection, the failed link always ranks
// first among non-exonerated links.
func Localize(alarmed, healthy []topo.Path) []Candidate {
	score := map[topo.LinkID]int{}
	for _, p := range alarmed {
		for _, l := range p.Links {
			score[l]++
		}
	}
	// A link carrying a healthy connection cannot be the failure.
	for _, p := range healthy {
		for _, l := range p.Links {
			delete(score, l)
		}
	}
	out := make([]Candidate, 0, len(score))
	for l, s := range score {
		out = append(out, Candidate{Link: l, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// PrimarySuspects returns the top-scoring candidates (all ties included) —
// the minimal set restoration must route around when the exact cut cannot be
// narrowed to one link.
func PrimarySuspects(cands []Candidate) []topo.LinkID {
	if len(cands) == 0 {
		return nil
	}
	best := cands[0].Score
	var out []topo.LinkID
	for _, c := range cands {
		if c.Score == best {
			out = append(out, c.Link)
		}
	}
	return out
}
