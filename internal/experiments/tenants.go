package experiments

import (
	"fmt"
	"time"

	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/inventory"
	"griphon/internal/metrics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// ChaosShardedN is the multi-tenant flavor of the chaos soak: randomized
// setups, teardowns, cuts and time jumps across many tenants spread over a
// sharded control plane, with the cross-shard invariant audit (per-shard
// books, coordinator claim/lit-channel balance, tenant→shard ownership)
// sweeping after every operation. With injectLeak a spectrum reservation is
// deliberately made behind the coordinator's back mid-soak, proving the
// cross-shard audit actually discriminates.
func ChaosShardedN(seed int64, steps, tenants, shards int, injectLeak bool) (Result, error) {
	res := Result{ID: "chaos-tenants", Paper: "PR 9: multi-tenant soak with cross-shard audit"}
	set, err := core.NewShardSet(topo.Testbed(), core.ShardSetConfig{Shards: shards, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	defer set.Close()

	rng := sim.NewRand(seed)
	sites := []topo.SiteID{"DC-A", "DC-B", "DC-C"}
	rates := []bw.Rate{bw.Rate1G, bw.Rate2G5, bw.Rate10G}
	custs := make([]inventory.Customer, tenants)
	for i := range custs {
		custs[i] = inventory.Customer(fmt.Sprintf("tenant-%04d", i))
	}

	findings := 0
	audit := func(step int, op string) {
		for _, f := range set.AuditInvariants() {
			findings++
			res.notef("AUDIT step %d after %s: %s", step, op, f)
		}
	}

	var live []*core.Connection
	connects, blocked := 0, 0
	leaked := false
	for step := 0; step < steps; step++ {
		op := "noop"
		cust := custs[rng.Intn(len(custs))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // connect as a random tenant
			op = "connect"
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			if a == b {
				break
			}
			conn, _, err := set.For(cust).Connect(core.Request{
				Customer: cust, From: a, To: b, Rate: rates[rng.Intn(len(rates))],
			})
			if err != nil {
				blocked++
				break
			}
			connects++
			live = append(live, conn)
		case 4, 5, 6: // disconnect one of the live connections
			op = "disconnect"
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			conn := live[i]
			if conn.State == core.StateActive || conn.State == core.StateDown {
				set.For(conn.Customer).Disconnect(conn.Customer, conn.ID) //lint:allow errcheck may race with teardown
			}
			live = append(live[:i], live[i+1:]...)
		case 7: // cut a healthy fiber (every shard sees it; crews repair)
			op = "cut"
			links := set.Shard(0).Ctrl.Graph().Links()
			l := links[rng.Intn(len(links))]
			if set.Shard(0).Ctrl.Plant().LinkUp(l.ID) {
				set.CutFiber(l.ID) //lint:allow errcheck verified up
				set.Drain()
				set.RepairFiber(l.ID) //lint:allow errcheck cut above
			}
		case 8, 9: // let time pass in lockstep across the shards
			op = "advance"
			set.Advance(time.Duration(rng.Intn(30)) * time.Minute)
		}
		if injectLeak && !leaked && step == steps/2 {
			// A buggy component lights a channel with the broker bypassed:
			// the per-shard books stay balanced, only the cross-shard sweep
			// can see the claim is missing.
			op = "leak"
			c := set.Shard(shards - 1).Ctrl
			broker := set.Coordinator().Broker(shards - 1)
			c.Plant().SetBroker(nil)
			if err := c.Plant().Spectrum("II-III").Reserve(79, "rogue"); err == nil {
				leaked = true
			}
			c.Plant().SetBroker(broker)
		}
		audit(step, op)
	}
	set.Drain()
	audit(steps, "final drain")

	tb := metrics.NewTable("Multi-tenant chaos soak", "Quantity", "Value")
	tb.Row("operations", float64(steps))
	tb.Row("tenants", float64(tenants))
	tb.Row("shards", float64(shards))
	tb.Row("connects", float64(connects))
	tb.Row("connects blocked at admission", float64(blocked))
	tb.Row("audit findings", float64(findings))
	res.Tables = append(res.Tables, tb)
	res.value("ops", float64(steps))
	res.value("connects", float64(connects))
	res.value("audit_findings", float64(findings))
	if injectLeak {
		res.value("leak_injected", b2f(leaked))
	}
	if findings == 0 {
		res.notef("books balanced across %d shards after every one of %d multi-tenant operations", shards, steps)
	} else {
		res.notef("VIOLATIONS: %d audit findings — see notes above", findings)
	}
	return res, nil
}
