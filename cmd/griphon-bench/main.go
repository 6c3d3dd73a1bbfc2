// Command griphon-bench regenerates the paper's tables and figures (and the
// extension studies indexed in DESIGN.md §4) as formatted text, and runs the
// soaks, all in virtual time. Wall-clock performance is measured by bench/.
//
// Usage:
//
//	griphon-bench                 # run everything
//	griphon-bench -exp table2     # one experiment
//	griphon-bench -list           # list experiment IDs
//	griphon-bench -seed 7         # different jitter/workload seed
//	griphon-bench -exp scale -cpuprofile cpu.prof -memprofile mem.prof
//	griphon-bench -trace trace.json   # record a setup→cut→restore demo trace
//	griphon-bench -chaos 2000         # chaos soak: N randomized ops under the fault model
//	griphon-bench -chaos 2000 -flight-out flight.json   # where a failing soak dumps the flight recorder
//	griphon-bench -chaos 300 -tenants 50 -shards 4   # multi-tenant soak with cross-shard audit
//	griphon-bench -crash 50           # crash-recovery soak: N random WAL truncations
//	griphon-bench -latency 120        # setup-latency benchmark: write BENCH_PR6.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"griphon"
	"griphon/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (see -list)")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := flag.String("trace", "", "record a scripted setup→cut→restore demo and write its Chrome trace to this file")
	chaos := flag.Int("chaos", 0, "run the chaos soak with this many randomized operations and exit")
	flightOut := flag.String("flight-out", "chaos-flight.json", "where a failing soak writes the flight-recorder dump, one JSON document per shard (empty disables)")
	crash := flag.Int("crash", 0, "run the crash-recovery soak with this many WAL truncation trials and exit")
	latency := flag.Int("latency", 0, "run the setup-latency benchmark with this many setups per class and write the JSON report")
	latencyOut := flag.String("latency-out", "BENCH_PR6.json", "where -latency writes the JSON report")
	tenants := flag.Int("tenants", 0, "with -chaos, spread the soak over this many customers on -shards shards and audit across shards")
	shards := flag.Int("shards", 4, "shard count for the -chaos -tenants soak")
	flag.Parse()

	if *latency > 0 {
		if err := runLatencyBench(*seed, *latency, *latencyOut); err != nil {
			fmt.Fprintln(os.Stderr, "latency:", err)
			os.Exit(1)
		}
		return
	}

	if *chaos > 0 || *crash > 0 {
		os.Exit(runSoak(*seed, *chaos, *tenants, *shards, *crash, *flightOut))
	}

	if *traceOut != "" {
		if err := writeDemoTrace(*traceOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s — load it in ui.perfetto.dev or chrome://tracing\n", *traceOut)
		return
	}

	if *list {
		for _, s := range experiments.All {
			fmt.Printf("%-16s %s\n", s.ID, s.Paper)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	var specs []experiments.Spec
	if *exp == "all" {
		specs = experiments.All
	} else {
		s, err := experiments.Find(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = []experiments.Spec{s}
	}

	for _, s := range specs {
		res, err := s.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.ID, err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		fmt.Println()
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
	}
}

// runSoak runs the soak preset the flags select — the multi-tenant chaos
// soak, the crash-recovery soak or the chaos soak, in that order — prints it,
// writes a failing run's flight-recorder dump to flightOut (unless empty),
// and returns the exit status: 1 on any audit, SLA or recovery finding.
func runSoak(seed int64, steps, tenants, shards, trials int, flightOut string) int {
	var res experiments.Result
	var err error
	switch {
	case tenants > 0 && steps > 0:
		res, err = experiments.ChaosShardedN(seed, steps, tenants, shards, false)
	case trials > 0:
		res, err = experiments.CrashRecN(seed, trials)
	default:
		res, err = experiments.ChaosN(seed, steps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 1
	}
	fmt.Print(res.String())
	if b, ok := res.Artifacts["flight.json"]; ok && flightOut != "" {
		if werr := os.WriteFile(flightOut, b, 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "flight-out:", werr)
		} else {
			fmt.Printf("wrote flight-recorder dump to %s\n", flightOut)
		}
	}
	if res.Values["findings"] != 0 {
		return 1
	}
	return 0
}

// writeDemoTrace runs the paper's headline scenario — a 10G wavelength setup
// on the Fig. 4 testbed, a fiber cut on its working path, and the automated
// restoration — with the span recorder on, and writes the Chrome trace. In
// the viewer the setup renders as the EMS step ladder and the restoration as
// detect → localize → provision tiles under op:restore.
func writeDemoTrace(path string, seed int64) error {
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(seed), griphon.WithTracing())
	if err != nil {
		return err
	}
	conn, err := net.Connect("demo", "DC-A", "DC-C", griphon.Rate10G)
	if err != nil {
		return err
	}
	if err := net.CutFiber(string(conn.Route().Links[0])); err != nil {
		return err
	}
	net.Drain()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return net.TraceTo(f)
}
