package alarms

import (
	"testing"
	"time"

	"griphon/internal/sim"
	"griphon/internal/topo"
)

func TestCorrelatorBatchesWindow(t *testing.T) {
	k := sim.NewKernel(1)
	var batches [][]Alarm
	c := NewCorrelator(k, 2*time.Second, func(b []Alarm) { batches = append(batches, b) })

	// Three alarms inside one window.
	k.After(0, func() { c.Observe(Alarm{Node: "I", Conn: "c1", Type: LOS}) })
	k.After(100*time.Millisecond, func() { c.Observe(Alarm{Node: "III", Conn: "c2", Type: LOS}) })
	k.After(900*time.Millisecond, func() { c.Observe(Alarm{Node: "IV", Conn: "c3", Type: LOS}) })
	// A fourth alarm after the window closes opens a second batch.
	k.After(10*time.Second, func() { c.Observe(Alarm{Node: "II", Conn: "c4", Type: EquipmentFail}) })
	k.Run()

	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if len(batches[0]) != 3 {
		t.Errorf("first batch = %d alarms, want 3", len(batches[0]))
	}
	if len(batches[1]) != 1 {
		t.Errorf("second batch = %d alarms, want 1", len(batches[1]))
	}
	if c.batches != 2 || len(c.pending) != 0 {
		t.Errorf("batches=%d pending=%d", c.batches, len(c.pending))
	}
}

func TestCorrelatorNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil sink did not panic")
		}
	}()
	NewCorrelator(sim.NewKernel(1), time.Second, nil)
}

func TestLocalizeSingleCut(t *testing.T) {
	g := topo.Testbed()
	// Cut I-III: connections I-III-IV and I-III alarm; I-IV stays healthy.
	a1, _ := topo.PathVia(g, "I", "III", "IV")
	a2, _ := topo.PathVia(g, "I", "III")
	h1, _ := topo.PathVia(g, "I", "IV")

	cands := Localize([]topo.Path{a1, a2}, []topo.Path{h1})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Link != "I-III" || cands[0].Score != 2 {
		t.Errorf("top candidate = %+v, want I-III score 2", cands[0])
	}
	suspects := PrimarySuspects(cands)
	if len(suspects) != 1 || suspects[0] != "I-III" {
		t.Errorf("suspects = %v", suspects)
	}
}

func TestLocalizeExoneratesHealthyLinks(t *testing.T) {
	g := topo.Testbed()
	// Alarmed path I-II-III-IV; II-III and III-IV carry healthy traffic,
	// so only I-II remains suspect.
	a, _ := topo.PathVia(g, "I", "II", "III", "IV")
	h1, _ := topo.PathVia(g, "II", "III", "IV")

	cands := Localize([]topo.Path{a}, []topo.Path{h1})
	if len(cands) != 1 || cands[0].Link != "I-II" {
		t.Errorf("candidates = %v, want only I-II", cands)
	}
}

func TestLocalizeNoAlarms(t *testing.T) {
	if got := Localize(nil, nil); len(got) != 0 {
		t.Errorf("candidates without alarms = %v", got)
	}
	if PrimarySuspects(nil) != nil {
		t.Error("suspects without candidates")
	}
}

func TestLocalizeAmbiguousTie(t *testing.T) {
	g := topo.Testbed()
	// One alarmed connection, no healthy ones: every link on its path ties.
	a, _ := topo.PathVia(g, "I", "III", "IV")
	cands := Localize([]topo.Path{a}, nil)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	suspects := PrimarySuspects(cands)
	if len(suspects) != 2 {
		t.Errorf("ambiguous suspects = %v, want both links", suspects)
	}
	// Deterministic tie order by link ID.
	if suspects[0] != "I-III" || suspects[1] != "III-IV" {
		t.Errorf("tie order = %v", suspects)
	}
}

func TestAlarmStrings(t *testing.T) {
	a := Alarm{At: sim.Time(time.Second), Node: "I", Conn: "c1", Type: LOS, Detail: "loss of light"}
	s := a.String()
	for _, want := range []string{"LOS", "I", "c1", "loss of light"} {
		if !contains(s, want) {
			t.Errorf("alarm string %q missing %q", s, want)
		}
	}
	if LOF.String() != "LOF" || EquipmentFail.String() != "EQPT" {
		t.Error("type strings")
	}
	if Type(9).String() == "" {
		t.Error("unknown type string empty")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
