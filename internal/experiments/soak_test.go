package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// soakSweep runs one soak preset across its seeds, each a subtest, and
// requires every oracle to stay silent: no audit, SLA or recovery finding and
// no unattributed outage. The named values must be positive in every run, or
// the soak exercised nothing. A preset with shard counts runs each seed once
// per count, a subtest of the seed's. Short mode (CI's quick lane) trims
// steps, seeds and trials.
func soakSweep(t *testing.T, preset string) {
	short := testing.Short()
	pick := func(full, quick int) int {
		if short {
			return quick
		}
		return full
	}
	sweeps := map[string]struct {
		seeds    int
		shards   []int
		run      func(seed int64, shards int) (Result, error)
		positive []string
	}{
		"chaos": {pick(3, 1), nil, func(seed int64, _ int) (Result, error) {
			return ChaosN(seed, pick(500, 150))
		}, []string{"sla_outages", "decisions", "connects"}},
		// Forty tenants: enough single-connection customers that a rate
		// change charged as a connection (the ledger bug the sharded preset
		// first found) underflows on seeds 2 and 3 at four shards. Two,
		// four and eight shards each split the plant's replicas differently.
		"chaos-tenants": {pick(5, 3), []int{2, 4, 8}, func(seed int64, shards int) (Result, error) {
			return ChaosShardedN(seed, pick(500, 400), 40, shards, false)
		}, []string{"sla_outages", "decisions", "connects"}},
		"crashrec": {pick(20, 6), nil, func(seed int64, _ int) (Result, error) {
			return CrashRecN(seed, pick(15, 8))
		}, []string{"commits", "decisions"}},
	}
	sw := sweeps[preset]
	check := func(t *testing.T, seed int64, shards int) {
		res, err := sw.run(seed, shards)
		if err != nil {
			t.Fatal(err)
		}
		if res.Values["findings"] != 0 {
			for _, n := range res.Notes {
				t.Log(n)
			}
			t.Fatalf("%v audit, SLA or recovery findings", res.Values["findings"])
		}
		if got := res.Values["unattributed"]; got != 0 {
			t.Errorf("%v unattributed outages — every interval must carry a root cause", got)
		}
		for _, v := range sw.positive {
			if res.Values[v] == 0 {
				t.Errorf("%s is zero; the soak exercised nothing", v)
			}
		}
	}
	for seed := int64(1); seed <= int64(sw.seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if sw.shards == nil {
				check(t, seed, 1)
				return
			}
			for _, n := range sw.shards {
				t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) { check(t, seed, n) })
			}
		})
	}
}

// TestChaosSoak: one shard, one customer, the EMS fault model, the audit
// after every operation and the SLA tiling after the final drain.
func TestChaosSoak(t *testing.T) { soakSweep(t, "chaos") }

// TestChaosShardedCleanRun: the same mix and oracles across forty tenants on
// two, four and eight shards, with the cross-shard sweeps in every audit.
func TestChaosShardedCleanRun(t *testing.T) { soakSweep(t, "chaos-tenants") }

// TestCrashRecovery: every WAL truncation of a crashed one-shard soak
// recovers audit-clean and byte-identical to the shadow state captured at
// the surviving sequence number.
func TestCrashRecovery(t *testing.T) { soakSweep(t, "crashrec") }

// TestChaosShardedDetectsInjectedLeak: a component that lights spectrum
// behind the coordinator's back mid-soak is caught by the cross-shard audit,
// and every finding is that channel — the soak is a real discriminator, not
// a rubber stamp.
func TestChaosShardedDetectsInjectedLeak(t *testing.T) {
	res, err := ChaosShardedN(1, 400, 40, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["leak_injected"] != 1 {
		t.Fatal("leak was not injected: no free channel on II-III")
	}
	if res.Values["audit_findings"] == 0 {
		t.Fatal("cross-shard audit missed the deliberately leaked channel")
	}
	crossShard := false
	for _, n := range res.Notes {
		if !strings.HasPrefix(n, "AUDIT") {
			continue
		}
		crossShard = crossShard || strings.Contains(n, "xshard-spectrum")
		if !strings.Contains(n, `"rogue"`) {
			t.Errorf("finding other than the leak: %s", n)
		}
	}
	if !crossShard {
		t.Error("no xshard-spectrum finding: the cross-shard sweep missed the unclaimed channel")
	}
}
