package slo

import (
	"strings"
	"testing"
	"time"

	"griphon/internal/obs"
	"griphon/internal/sim"
)

func at(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }

func TestLedgerOutageLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(reg)

	l.Activate("c1", "acme", at(0), false, false)
	l.Down("c1", at(10*time.Second), CauseFiberCut, "I-III", "LOS storm", "detect")
	// Second Down while open must not reset attribution.
	l.Down("c1", at(11*time.Second), CauseEMSFault, "", "spurious", "detect")
	l.Phase("c1", at(12*time.Second), "localize")
	l.Phase("c1", at(13*time.Second), "provision")
	l.Block("c1", at(14*time.Second), "EMS failure")
	l.Up("c1", at(40*time.Second), "restored")

	outs := l.Outages("c1")
	if len(outs) != 1 {
		t.Fatalf("outages = %d, want 1", len(outs))
	}
	o := outs[0]
	if o.Cause != CauseFiberCut || o.Link != "I-III" {
		t.Errorf("attribution = %v link=%s, want fiber-cut I-III", o.Cause, o.Link)
	}
	if o.Open || o.Duration(at(time.Hour)) != 30*time.Second {
		t.Errorf("duration = %v open=%v, want 30s closed", o.Duration(at(time.Hour)), o.Open)
	}
	if o.Resolution != "restored" {
		t.Errorf("resolution = %q", o.Resolution)
	}
	if len(o.Blocks) != 1 || o.Blocks[0].Reason != "EMS failure" {
		t.Errorf("blocks = %+v", o.Blocks)
	}
	// Phases must tile the outage exactly.
	var sum sim.Duration
	for i, p := range o.Phases {
		if p.Open {
			t.Fatalf("phase %d still open", i)
		}
		if i > 0 && p.Start != o.Phases[i-1].End {
			t.Errorf("gap between phase %d and %d", i-1, i)
		}
		sum += p.Duration()
	}
	if sum != o.Duration(at(0)) {
		t.Errorf("phase sum %v != outage %v", sum, o.Duration(at(0)))
	}
	if got := []string{o.Phases[0].Name, o.Phases[1].Name, o.Phases[2].Name}; got[0] != "detect" || got[1] != "localize" || got[2] != "provision" {
		t.Errorf("phase names = %v", got)
	}
	if d := l.Downtime("c1", at(time.Hour)); d != 30*time.Second {
		t.Errorf("downtime = %v", d)
	}
}

func TestLedgerOpenIntervalCountsInDowntime(t *testing.T) {
	l := New(nil)
	l.Activate("c1", "acme", at(0), false, false)
	l.Down("c1", at(5*time.Second), CauseMaintenance, "II-IV", "window", "hit")
	if d := l.Downtime("c1", at(25*time.Second)); d != 20*time.Second {
		t.Errorf("open downtime = %v, want 20s", d)
	}
	// Up with nothing open is a no-op after close.
	l.Up("c1", at(30*time.Second), "revived")
	l.Up("c1", at(31*time.Second), "again")
	if n := len(l.Outages("c1")); n != 1 {
		t.Errorf("outages = %d", n)
	}
}

func TestLedgerReleaseClosesOpenOutage(t *testing.T) {
	l := New(nil)
	l.Activate("c1", "acme", at(0), false, false)
	l.Down("c1", at(10*time.Second), CauseFiberCut, "I-II", "", "detect")
	l.Release("c1", at(30*time.Second))
	outs := l.Outages("c1")
	if len(outs) != 1 || outs[0].Open || outs[0].Resolution != "released" {
		t.Fatalf("outages = %+v", outs)
	}
	rep := l.Report("acme", at(60*time.Second))
	if len(rep.Conns) != 1 {
		t.Fatalf("report conns = %d", len(rep.Conns))
	}
	cr := rep.Conns[0]
	// Lifetime stops at release.
	if cr.Lifetime != 30*time.Second || cr.Downtime != 20*time.Second {
		t.Errorf("lifetime=%v downtime=%v", cr.Lifetime, cr.Downtime)
	}
}

func TestReportFiltersCustomerAndInternal(t *testing.T) {
	l := New(nil)
	l.Activate("a1", "acme", at(0), false, false)
	l.Activate("b1", "bob", at(0), true, false)
	l.Activate("carrier", "", at(0), false, true)
	l.Down("a1", at(10*time.Second), CauseUnknown, "", "", "")
	l.Up("a1", at(20*time.Second), "restored")

	rep := l.Report("acme", at(100*time.Second))
	if len(rep.Conns) != 1 || rep.Conns[0].Conn != "a1" {
		t.Fatalf("acme report = %+v", rep.Conns)
	}
	if rep.Unattributed != 1 || rep.OutageCount != 1 {
		t.Errorf("unattributed=%d outages=%d", rep.Unattributed, rep.OutageCount)
	}
	want := float64(90*time.Second) / float64(100*time.Second)
	if rep.Availability != want {
		t.Errorf("availability = %v, want %v", rep.Availability, want)
	}

	all := l.Report("", at(100*time.Second))
	if len(all.Conns) != 2 {
		t.Fatalf("operator report = %d conns, want 2 (internal excluded)", len(all.Conns))
	}
	for _, c := range all.Conns {
		if c.Conn == "carrier" {
			t.Error("internal connection leaked into report")
		}
		if c.Conn == "b1" && !c.Degraded {
			t.Error("degraded flag lost")
		}
	}
}

func TestLedgerInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(reg)
	l.Activate("c1", "acme", at(0), false, false)
	l.Down("c1", at(time.Second), CauseFiberCut, "I-II", "", "detect")
	l.Phase("c1", at(2*time.Second), "provision")
	l.Up("c1", at(3*time.Second), "restored")
	l.Activate("c2", "acme", at(0), true, false)
	l.Down("c2", at(time.Second), CauseUnknown, "", "", "")
	l.Up("c2", at(2*time.Second), "restored")

	var buf strings.Builder
	if err := obs.WriteMergedPrometheus(&buf, "", []string{""}, []*obs.Registry{reg}); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`griphon_sla_outages_total{cause="fiber-cut"} 1`,
		`griphon_sla_downtime_seconds_total{cause="fiber-cut"} 2`,
		`griphon_sla_unattributed_total 1`,
		`griphon_sla_tracked_connections 2`,
		`griphon_sla_degraded_connections 1`,
		`griphon_sla_open_outages 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range causes {
		if strings.HasPrefix(c.String(), "Cause(") {
			t.Errorf("cause %d has no name", int(c))
		}
	}
	if !strings.HasPrefix(Cause(99).String(), "Cause(") {
		t.Error("unknown cause string")
	}
	o := Outage{Conn: "c1", Start: at(0), Open: true, Cause: CauseFiberCut, Link: "I-II"}
	if s := o.String(); !strings.Contains(s, "fiber-cut") || !strings.Contains(s, "open") {
		t.Errorf("outage string = %q", s)
	}
}

// TestLedgerGaugesFollowTransitions: the three gauges are counts kept at the
// transitions, not walks over the history, and must read the same as a walk
// would at every step — released rows included in tracked, excluded from
// degraded and open.
func TestLedgerGaugesFollowTransitions(t *testing.T) {
	l := New(obs.NewRegistry())
	check := func(step string, tracked, open, degraded int) {
		t.Helper()
		if l.tracked != tracked || l.openOutages != open || l.degradedLive != degraded {
			t.Errorf("%s: tracked %d open %d degraded %d, want %d %d %d",
				step, l.tracked, l.openOutages, l.degradedLive, tracked, open, degraded)
		}
	}
	l.Activate("c1", "acme", at(0), true, false)
	l.Activate("c2", "acme", at(0), false, false)
	l.Activate("c3", "bob", at(0), true, false)
	check("activated", 3, 0, 2)
	l.Activate("c1", "acme", at(time.Second), true, false) // re-activation must not double-count
	check("re-activated", 3, 0, 2)
	l.Down("c1", at(2*time.Second), CauseFiberCut, "I-II", "", "detect")
	l.Down("c1", at(3*time.Second), CauseFiberCut, "I-II", "", "detect")
	l.Down("c2", at(3*time.Second), CauseRoll, "", "", "hit")
	check("two down", 3, 2, 2)
	l.Up("c2", at(4*time.Second), "roll-done")
	check("one up", 3, 1, 2)
	l.Release("c1", at(5*time.Second)) // closes its outage, leaves the degraded count
	check("released", 3, 0, 1)
	l.Release("c1", at(6*time.Second))
	check("released twice", 3, 0, 1)
	if got := len(l.Report("acme", at(time.Minute)).Conns); got != 2 {
		t.Errorf("report lists %d connections, want the live and the released one", got)
	}
	if outs := l.Outages("c1"); len(outs) != 1 || outs[0].Resolution != "released" {
		t.Errorf("released connection's outages = %+v", outs)
	}
	if got := l.Conns(); len(got) != 3 || got[0] != "c1" || got[2] != "c3" {
		t.Errorf("Conns = %v", got)
	}
}
