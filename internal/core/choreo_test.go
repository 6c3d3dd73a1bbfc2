package core

import (
	"sort"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/ems"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// flatLatencies is the calibrated table with jitter off, so choreography
// timings are exact.
func flatLatencies() ems.Latencies {
	lat := ems.Default()
	lat.JitterRel = 0
	return lat
}

func newChoreoTestbed(t *testing.T, seed int64, cfg Config) (*sim.Kernel, *Controller) {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg.Latencies = flatLatencies()
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

// oneHop is the Testbed's DC-A -> DC-C request: home PoPs I and IV, direct
// 1-hop fiber, no regeneration.
var oneHop = Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G}

func TestSerialChoreographyMatchesTable2(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{})
	conn := mustConnect(t, k, c, oneHop)
	if want := c.lat.WavelengthSetupMean(1, 0); conn.SetupTime() != want {
		t.Errorf("serial setup = %v, want exactly %v", conn.SetupTime(), want)
	}
}

func TestGraphChoreographyCriticalPath(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{Choreography: ChoreoGraph})
	conn := mustConnect(t, k, c, oneHop)
	want := c.lat.WavelengthSetupGraphMean(1, 0)
	if conn.SetupTime() != want {
		t.Errorf("graph setup = %v, want exactly %v (the critical path)", conn.SetupTime(), want)
	}
	serial := c.lat.WavelengthSetupMean(1, 0)
	if 2*conn.SetupTime() >= 3*serial {
		t.Errorf("graph setup %v is not meaningfully below serial %v", conn.SetupTime(), serial)
	}
}

func TestGraphChoreographyWithPreArm(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{
		Choreography: ChoreoGraph,
		PreArm:       PreArm{WarmOTsPerNode: 2, WarmSessions: 2},
	})
	conn := mustConnect(t, k, c, oneHop)
	// Warm session skips EMS-session establishment; two warm ends skip
	// laser tuning entirely: overhead + elements + power + equalize + verify
	// = 2 + 7 + 3.2 + 9 + 8 s.
	lat := c.lat
	want := lat.ControllerOverhead + lat.ROADMAddDrop +
		lat.PowerBalancePerHop + lat.LinkEqualize + lat.VerifyEndToEnd
	if conn.SetupTime() != want {
		t.Errorf("pre-armed graph setup = %v, want exactly %v", conn.SetupTime(), want)
	}
	// Background re-arming refilled the pools before the kernel drained.
	if got := c.prearm.sessions; got != 2 {
		t.Errorf("warm sessions after drain = %d, want 2 (re-armed)", got)
	}
	for _, n := range []topo.NodeID{"I", "IV"} {
		if got := c.prearm.warmOTs[n]; got != 2 {
			t.Errorf("warm OTs at %s = %d, want 2 (re-armed)", n, got)
		}
	}
	if got := metricValue(t, c, "griphon_prearm_claims_total", ""); got != 3 {
		t.Errorf("pre-arm claims = %v, want 3 (one session, two transponders)", got)
	}
	if got := metricValue(t, c, "griphon_prearm_rearms_total", `outcome="ok"`); got != 3 {
		t.Errorf("re-arms ok = %v, want 3", got)
	}
}

func TestGraphTeardownHalvesTeardownTime(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{Choreography: ChoreoGraph})
	conn := mustConnect(t, k, c, oneHop)
	job, err := c.Disconnect("x", conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	// ctl 1 s, then max(FXC disconnects 1.5 s, session 2 s + releases 2 s).
	lat := c.lat
	want := lat.TeardownController + lat.TeardownEMSSession + lat.ROADMRelease
	if job.Elapsed() != want {
		t.Errorf("graph teardown = %v, want exactly %v", job.Elapsed(), want)
	}
	if serial := lat.WavelengthTeardownMean(); 2*job.Elapsed() > serial {
		t.Errorf("graph teardown %v not at least 2x under serial %v", job.Elapsed(), serial)
	}
	auditClean(t, c)
}

// TestGraphChoreographySpanTiling: with jitter off and no contention, the
// union of a lightpath:setup span's child spans (controller overhead plus
// every EMS command, which execute concurrently across lanes) must cover the
// whole setup interval with no gaps — every simulated second is accounted
// for, PR 4's tracing guarantee carried over to the graph choreography.
func TestGraphChoreographySpanTiling(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.NewTracer(k)
	cfg := Config{Choreography: ChoreoGraph, Latencies: flatLatencies(), Tracer: tr}
	c, err := New(k, topo.Testbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, k, c, oneHop)

	setups := tr.SpansNamed("lightpath:setup")
	if len(setups) != 1 {
		t.Fatalf("lightpath:setup spans = %d, want 1", len(setups))
	}
	sp := setups[0]
	kids := tr.Children(sp.ID)
	if len(kids) == 0 {
		t.Fatal("no child spans under lightpath:setup")
	}
	// Merge child intervals and verify they tile [sp.Start, sp.End].
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	if kids[0].Start != sp.Start {
		t.Errorf("first child starts at %v, setup at %v: leading gap", kids[0].Start, sp.Start)
	}
	covered := kids[0].End
	for _, kd := range kids[1:] {
		if kd.Start > covered {
			t.Errorf("gap in span coverage: %v .. %v unaccounted", covered, kd.Start)
		}
		if kd.End > covered {
			covered = kd.End
		}
	}
	if covered != sp.End {
		t.Errorf("children cover up to %v, setup ends at %v", covered, sp.End)
	}
	if sp.Duration() != c.lat.WavelengthSetupGraphMean(1, 0) {
		t.Errorf("setup span duration = %v, want %v", sp.Duration(), c.lat.WavelengthSetupGraphMean(1, 0))
	}
}

// TestChoreographyModesAgreeOnOutcome: both choreographies configure the
// same elements — only the ordering differs — so the resulting network state
// must be identical and the audit clean in both modes.
func TestChoreographyModesAgreeOnOutcome(t *testing.T) {
	for _, mode := range []Choreography{ChoreoSerial, ChoreoGraph} {
		k, c := newChoreoTestbed(t, 7, Config{Choreography: mode})
		conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
		if conn.Route().String() != "I-III" {
			t.Errorf("%v: route = %s, want I-III", mode, conn.Route())
		}
		if _, err := c.Disconnect("x", conn.ID); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		k.Run()
		auditClean(t, c)
	}
}

// TestGraphChoreographyMultiHop pins the hop scaling: power balancing stays
// serialized on the optical lane, so a 2-hop setup costs one more
// PowerBalancePerHop plus the express configuration overlapping add-drops.
func TestGraphChoreographyMultiHop(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{Choreography: ChoreoGraph})
	// Fail the direct I-III fiber so DC-A -> DC-B rides I-II-III (2 hops).
	if err := c.CutFiber("I-III"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if conn.Route().String() != "I-II-III" {
		t.Fatalf("route = %s, want I-II-III", conn.Route())
	}
	if want := c.lat.WavelengthSetupGraphMean(2, 0); conn.SetupTime() != want {
		t.Errorf("2-hop graph setup = %v, want exactly %v", conn.SetupTime(), want)
	}
}

// TestSerialChoreographyPreArmStillSerial: pre-arm claims also shrink the
// serialized choreography (the batch simply omits paid-for steps), without
// reordering anything.
func TestSerialChoreographyPreArmStillSerial(t *testing.T) {
	k, c := newChoreoTestbed(t, 1, Config{
		PreArm: PreArm{WarmOTsPerNode: 1, WarmSessions: 1},
	})
	conn := mustConnect(t, k, c, oneHop)
	lat := c.lat
	// Serial sum minus the skipped EMS session and laser tune (two warm
	// ends -> no tuning at all).
	want := lat.WavelengthSetupMean(1, 0) - lat.EMSSession - lat.LaserTune
	if conn.SetupTime() != want {
		t.Errorf("pre-armed serial setup = %v, want exactly %v", conn.SetupTime(), want)
	}
}
