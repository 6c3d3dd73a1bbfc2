package core

import (
	"strings"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/faults"
)

// metricValue sums every point of the named metric whose rendered label block
// contains labelSub ("" matches all children).
func metricValue(t *testing.T, c *Controller, name, labelSub string) float64 {
	t.Helper()
	total := 0.0
	for _, p := range c.Metrics().Snapshot() {
		if p.Name == name && strings.Contains(p.Labels, labelSub) {
			total += p.Value
		}
	}
	return total
}

func auditClean(t *testing.T, c *Controller) {
	t.Helper()
	for _, f := range c.AuditInvariants() {
		t.Errorf("audit: %s", f)
	}
}

// TestSetupRetriesTransientFailure is the acceptance case for the retry
// policy: a single transient EMS fault used to hard-fail the whole setup;
// now the failed step is resubmitted after a backoff and the connection
// comes up on its original path.
func TestSetupRetriesTransientFailure(t *testing.T) {
	k, c := newTestbed(t, 301)
	c.roadmEMS.InjectFailures(1, &faults.Error{
		EMS: "roadm-ems", Cmd: "ems-session", Class: faults.Transient, Reason: "vendor-timeout",
	})
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Layer != LayerDWDM || conn.Degraded {
		t.Errorf("retried setup should stay a plain wavelength; layer=%v degraded=%v", conn.Layer, conn.Degraded)
	}
	if got := metricValue(t, c, "griphon_ems_retries_total", ""); got < 1 {
		t.Errorf("griphon_ems_retries_total = %v, want >= 1", got)
	}
	if got := metricValue(t, c, "griphon_setup_degraded_total", ""); got != 0 {
		t.Errorf("degraded metric = %v, want 0 (retry alone should recover)", got)
	}
	auditClean(t, c)
}

// TestPersistentFaultFallsBackToAlternateRoute: a path that keeps rejecting
// configuration is abandoned for the next candidate route instead of failing
// the request.
func TestPersistentFaultFallsBackToAlternateRoute(t *testing.T) {
	k, c := newTestbed(t, 302)
	c.roadmEMS.InjectFailures(1, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="reroute"`); got != 1 {
		t.Errorf("reroute metric = %v, want 1", got)
	}
	// DC-A/DC-C home PoPs are I and IV; the direct I-IV hop failed, so the
	// connection must ride an alternate.
	if r := conn.Route().String(); r == "I-IV" {
		t.Errorf("route = %s; expected an alternate after the persistent fault", r)
	}
	if got := metricValue(t, c, "griphon_ems_retries_total", ""); got != 0 {
		t.Errorf("retries = %v; persistent faults must not be resubmitted", got)
	}
	auditClean(t, c)
}

// TestPersistentFaultsExhaustAllRoutes: when every candidate route fails and
// degradation is off, the request fails cleanly with nothing leaked.
func TestPersistentFaultsExhaustAllRoutes(t *testing.T) {
	k, c := newTestbed(t, 303)
	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	_, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("setup succeeded despite persistent faults on every route")
	}
	// Cumulative avoidance: after I-IV and I-III-IV fail, every remaining
	// candidate reuses a poisoned link, so only one reroute is possible —
	// NOT wavelengthAlternates, which would mean revisiting failed links.
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="reroute"`); got != 1 {
		t.Errorf("reroute metric = %v, want 1 (cumulative avoid exhausts candidates)", got)
	}
	auditClean(t, c)
}

// TestTransientFaultsExhaustRetryBudget: a step that keeps timing out stops
// being retried once the policy's attempts are spent, and the error then
// walks the ladder like any other fault.
func TestTransientFaultsExhaustRetryBudget(t *testing.T) {
	k, c := newTestbed(t, 304)
	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "ems-session", Class: faults.Transient, Reason: "vendor-timeout",
	})
	conn, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("setup succeeded despite unbounded transient faults")
	}
	if conn.State != StateReleased {
		t.Errorf("state = %v, want released", conn.State)
	}
	// Each failing ROADM step burns MaxAttempts-1 retries; the initial path
	// plus the single link-disjoint alternate each hit one failing step
	// (cumulative avoidance leaves no third candidate).
	want := float64((c.retry.MaxAttempts - 1) * 2)
	if got := metricValue(t, c, "griphon_ems_retries_total", ""); got != want {
		t.Errorf("retries = %v, want %v", got, want)
	}
	auditClean(t, c)
}

// TestRerouteAvoidAccumulates pins the cumulative-avoidance fix: the avoid
// set must carry across the ladder's rungs, so a path that failed on an
// earlier attempt is never revisited just because a LATER attempt failed on
// different links. Pre-fix, attempt 3 avoided only attempt 2's links and
// walked straight back onto the already-poisoned direct path.
func TestRerouteAvoidAccumulates(t *testing.T) {
	k, c := newTestbed(t, 305)
	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	_, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("setup succeeded despite persistent faults on every route")
	}
	// Every attempted path shows up as one setup-fallback event; with
	// cumulative avoidance no path can be attempted twice.
	seen := map[string]int{}
	for _, e := range logged(&c.events) {
		if e.Kind == "setup-fallback" {
			seen[e.Text]++
		}
	}
	for path, n := range seen {
		if n > 1 {
			t.Errorf("path attempted %d times (%s); failed links must stay avoided across rungs", n, path)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no setup-fallback events recorded; the ladder never ran")
	}
	auditClean(t, c)
}
