package core

import (
	"testing"

	"griphon/internal/bw"
	"griphon/internal/faults"
	"griphon/internal/optics"
	"griphon/internal/otn"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func newDegradingTestbed(t *testing.T, seed int64, opt optics.Config) (*sim.Kernel, *Controller) {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := New(k, topo.Testbed(), Config{DegradeToOTN: true, Optics: opt})
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

// TestSetupDegradesToGroomedCircuit: when every DWDM route keeps failing, a
// 10G request is delivered as a groomed OTN circuit over existing overlay
// capacity instead of hard-blocking.
func TestSetupDegradesToGroomedCircuit(t *testing.T) {
	k, c := newDegradingTestbed(t, 401, optics.Config{})
	// Pre-groom: an ODU2 pipe between the request's home PoPs, built while
	// the ROADM EMS is still healthy.
	pj, err := c.EnsurePipe("I", "IV", otn.ODU2)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if pj.Err() != nil {
		t.Fatal(pj.Err())
	}

	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Layer != LayerOTN || !conn.Degraded {
		t.Errorf("layer=%v degraded=%v, want a degraded OTN circuit", conn.Layer, conn.Degraded)
	}
	if conn.Protect != SharedMesh {
		t.Errorf("protect = %v, want shared-mesh after degradation", conn.Protect)
	}
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="groomed"`); got != 1 {
		t.Errorf("groomed metric = %v, want 1", got)
	}
	// Cumulative avoidance leaves a single viable alternate before the
	// grooming rung (see TestRerouteAvoidAccumulates).
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="reroute"`); got != 1 {
		t.Errorf("reroute metric = %v, want 1 before grooming", got)
	}
	auditClean(t, c)
}

// TestSetupDegradesWhenNoWavelengthAvailable: the sync rung — when admission
// finds no free wavelength resources at all, the request degrades immediately.
func TestSetupDegradesWhenNoWavelengthAvailable(t *testing.T) {
	// One transponder per node: the pre-groomed pipe consumes the only OTs
	// at I and IV, so no further wavelength can terminate there.
	k, c := newDegradingTestbed(t, 402, optics.Config{
		Channels: 80, ReachKM: 2500, OTsPerNode: 1, RegensPerNode: 2,
	})
	pj, err := c.EnsurePipe("I", "IV", otn.ODU2)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if pj.Err() != nil {
		t.Fatal(pj.Err())
	}

	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if conn.Layer != LayerOTN || !conn.Degraded {
		t.Errorf("layer=%v degraded=%v, want a degraded OTN circuit", conn.Layer, conn.Degraded)
	}
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="groomed"`); got != 1 {
		t.Errorf("groomed metric = %v, want 1", got)
	}
	auditClean(t, c)
}

// TestNoDegradeWithoutOptIn: without Config.DegradeToOTN the ladder ends at
// route fallback and the request fails cleanly.
func TestNoDegradeWithoutOptIn(t *testing.T) {
	k, c := newTestbed(t, 403)
	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	conn, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("setup succeeded; expected a hard failure without DegradeToOTN")
	}
	if conn.State != StateReleased || conn.Degraded {
		t.Errorf("state=%v degraded=%v, want a clean release", conn.State, conn.Degraded)
	}
	if got := metricValue(t, c, "griphon_setup_degraded_total", `mode="groomed"`); got != 0 {
		t.Errorf("groomed metric = %v, want 0", got)
	}
	auditClean(t, c)
}

// TestNoDegradeFor40G: a 40G wavelength cannot be groomed into ODU2 pipes
// (it would need an ODU3), so the ladder never degrades it.
func TestNoDegradeFor40G(t *testing.T) {
	k, c := newDegradingTestbed(t, 404, optics.Config{})
	pj, err := c.EnsurePipe("I", "IV", otn.ODU2)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if pj.Err() != nil {
		t.Fatal(pj.Err())
	}
	c.roadmEMS.InjectFailures(1000, &faults.Error{
		EMS: "roadm-ems", Cmd: "add-drop", Class: faults.Persistent, Reason: "config-rejected",
	})
	conn, job, err := c.Connect(Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate40G})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() == nil {
		t.Fatal("40G setup succeeded; expected failure (no ODU3 grooming)")
	}
	if conn.Degraded || conn.Layer != LayerDWDM {
		t.Errorf("40G request degraded (layer=%v); must not", conn.Layer)
	}
	auditClean(t, c)
}
