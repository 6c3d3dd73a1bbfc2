// Command griphond serves the GRIPhoN customer/operator API over HTTP — the
// paper's "customer GUI" backend (§2.2): connection management, fault status,
// plus operator controls (fiber cuts, repairs, maintenance windows, virtual-
// clock advancement) for driving demonstrations.
//
// The network inside is simulated on a virtual clock: each API call advances
// the simulation until its operation completes, so a 62-second wavelength
// setup returns immediately with its measured setup time.
//
// Usage:
//
//	griphond                         # Fig. 4 testbed on :8580
//	griphond -topo backbone          # 14-node US backbone
//	griphond -topo continental -pops 75 -sites 8
//	griphond -listen :9000 -seed 7
//	griphond -trace                  # record spans; GET /api/v1/trace
//	griphond -state-dir /var/lib/griphon   # durable state; restart-safe
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"

	"griphon"
	"griphon/internal/api"
)

func main() {
	listen := flag.String("listen", ":8580", "listen address")
	topoName := flag.String("topo", "testbed", "topology: testbed | backbone | continental")
	pops := flag.Int("pops", 75, "PoP count for -topo continental")
	sites := flag.Int("sites", 8, "site count for -topo continental")
	seed := flag.Int64("seed", 1, "simulation seed")
	autoRepair := flag.Bool("auto-repair", true, "dispatch repair crews automatically after cuts")
	trace := flag.Bool("trace", false, "record virtual-time spans; export via GET /api/v1/trace")
	stateDir := flag.String("state-dir", "", "persist controller state in this directory (WAL + snapshots); recovers on restart")
	fsync := flag.Bool("fsync", false, "fsync the journal after every commit (with -state-dir)")
	shards := flag.Int("shards", 1, "partition the control plane into N per-customer shards; GET /api/v1/shards")
	flag.Parse()

	net, desc, err := buildNetwork(*topoName, *pops, *sites, *seed, *autoRepair, *trace, *stateDir, *fsync, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	procs := serveProcs(os.LookupEnv)
	registerRuntime(net.Metrics())
	srv := api.NewServer(net)
	log.Printf("griphond: %s, %d P, listening on %s", desc, procs, *listen)
	log.Fatal(http.ListenAndServe(*listen, srv.Handler()))
}

// serveProcs sets the P count griphond serves on, and returns it. Every
// request runs under one server mutex and the shards move in lockstep, so a
// second P buys no throughput, only wakeups across CPUs (DESIGN.md §14).
// GOMAXPROCS in the environment, which the Go runtime has already applied,
// wins. main calls this once the network is built, so that a sharded restart
// still rebuilds its shards on every CPU.
func serveProcs(lookupEnv func(string) (string, bool)) int {
	if v, set := lookupEnv("GOMAXPROCS"); set && v != "" {
		return runtime.GOMAXPROCS(0)
	}
	runtime.GOMAXPROCS(1)
	return 1
}

// buildNetwork assembles the simulated network for the chosen topology.
func buildNetwork(topoName string, pops, sites int, seed int64, autoRepair, trace bool, stateDir string, fsync bool, shards int) (*griphon.Network, string, error) {
	var topo *griphon.Topology
	switch topoName {
	case "testbed":
		topo = griphon.Testbed()
	case "backbone":
		topo = griphon.Backbone()
	case "continental":
		var err error
		topo, err = griphon.Continental(pops, sites, seed)
		if err != nil {
			return nil, "", err
		}
	default:
		return nil, "", fmt.Errorf("unknown topology %q (testbed | backbone | continental)", topoName)
	}

	opts := []griphon.Option{griphon.WithSeed(seed)}
	if autoRepair {
		opts = append(opts, griphon.WithAutoRepair())
	}
	if trace {
		opts = append(opts, griphon.WithTracing())
	}
	if stateDir != "" {
		opts = append(opts, griphon.WithStateDir(stateDir))
		if fsync {
			opts = append(opts, griphon.WithFsync())
		}
	}
	if shards > 1 {
		opts = append(opts, griphon.WithShards(shards))
	}
	net, err := griphon.New(topo, opts...)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%s topology (%d PoPs, %d sites)", topoName, len(topo.PoPs()), len(topo.Sites()))
	if shards > 1 {
		desc += fmt.Sprintf(", %d control-plane shards", shards)
	}
	return net, desc, nil
}
