package experiments

import "testing"

// TestChaosShardedCleanRun: the multi-tenant soak holds the cross-shard
// invariants through a randomized workload.
func TestChaosShardedCleanRun(t *testing.T) {
	res, err := ChaosShardedN(1, 120, 40, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["audit_findings"] != 0 {
		t.Errorf("clean soak reported %v findings:\n%s", res.Values["audit_findings"], res.String())
	}
}

// TestChaosShardedDetectsInjectedLeak: a component that lights spectrum
// behind the coordinator's back mid-soak is caught by the cross-shard audit —
// the soak is a real discriminator, not a rubber stamp.
func TestChaosShardedDetectsInjectedLeak(t *testing.T) {
	res, err := ChaosShardedN(1, 120, 40, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["leak_injected"] != 1 {
		t.Fatal("leak was not injected (channel already lit?); pick another channel")
	}
	if res.Values["audit_findings"] == 0 {
		t.Error("cross-shard audit missed the deliberately leaked channel")
	}
}
