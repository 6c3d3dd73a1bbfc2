package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"griphon/internal/alarms"
	"griphon/internal/obs"
	"griphon/internal/sim"
)

func TestFlightRecorderBoundedAndDump(t *testing.T) {
	reg := obs.NewRegistry()
	fr := NewFlightRecorder(3, reg)
	l := New(nil)
	fr.AttachLedger(l)
	fr.AttachSpans(func() []SpanRecord {
		return []SpanRecord{{Name: "op:restore", Start: at(0), End: at(time.Second), Conn: "c1", Outcome: "restored"}}
	})

	for i := 0; i < 5; i++ {
		fr.Event(at(sim.Duration(i)*time.Second), "c1", "test", "event")
	}
	fr.Commit(at(time.Second), "fiber-cut", json.RawMessage(`{"links":1}`))
	fr.AlarmGroup(alarms.Group{Seq: 1, Kind: alarms.GroupFiberCut, Link: "I-II"})

	l.Activate("c1", "acme", at(0), false, false)
	l.Down("c1", at(2*time.Second), CauseFiberCut, "I-II", "", "detect")

	d := fr.Snapshot("audit finding", at(10*time.Second), []string{"ghost pipe"})
	if len(d.Events) != 3 {
		t.Errorf("events retained = %d, want ring cap 3", len(d.Events))
	}
	if len(d.Commits) != 1 || d.Commits[0].Reason != "fiber-cut" {
		t.Errorf("commits = %+v", d.Commits)
	}
	if len(d.Alarms) != 1 || len(d.Spans) != 1 {
		t.Errorf("alarms=%d spans=%d", len(d.Alarms), len(d.Spans))
	}
	if len(d.Outages) != 1 || !d.Outages[0].Open {
		t.Errorf("open outages = %+v", d.Outages)
	}
	if len(d.Findings) != 1 || d.Reason != "audit finding" {
		t.Errorf("reason=%q findings=%v", d.Reason, d.Findings)
	}

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if back.Reason != "audit finding" || len(back.Events) != 3 {
		t.Errorf("round trip = %+v", back)
	}

	var prom strings.Builder
	if err := obs.WriteMergedPrometheus(&prom, "", []string{""}, []*obs.Registry{reg}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"griphon_flight_dropped_total 2",
		"griphon_flight_dumps_total 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("export missing %q", want)
		}
	}
}
