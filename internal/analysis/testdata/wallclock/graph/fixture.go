package fixture

import (
	"time"

	"griphon/internal/sim"
)

// Graph-choreography code lives OUTSIDE internal/sim, so the wallclock
// exemption does not cover it: node run closures execute on the virtual
// clock and must never read the host one — a single time.Now inside a node
// would differ between a live run and a journal replay.
func buildSetup(k *sim.Kernel) *sim.Job {
	g := sim.NewGraph(k)
	a := g.Node(func() *sim.Job {
		return k.AfterJob(1500*time.Millisecond, nil) // duration literals are fine
	})
	b := g.Node(func() *sim.Job {
		_ = time.Now() // want `time\.Now reads the wall clock`
		return k.AfterJob(time.Second, nil)
	})
	g.Edge(a, b)
	return g.Go()
}
