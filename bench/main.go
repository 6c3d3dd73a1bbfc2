// Command bench is griphond's one benchmark: an end-to-end run against a
// spawned daemon over loopback TCP with tracing off, and a traced in-process
// run that gives the per-layer numbers. BENCHMARK.json at the repository root
// names the workloads, the metrics and the bounds; README.md beside this file
// says what each number means and which end-to-end metric a layer should move.
//
//	go run ./bench                              # every workload, both runs
//	go run ./bench -workload portal-read -trace 0
//	go run ./bench -compare a.json b.json
//
// Linux only: daemon CPU and memory come from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// report is the -out file: everything one invocation measured.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Repeats int         `json:"repeats"`
	// EndToEnd and PerLayer hold one result per workload run in that mode.
	EndToEnd []*result `json:"end_to_end"`
	PerLayer []*result `json:"per_layer"`
}

// environment states what the numbers were measured on. Fsync latency is
// this filesystem's, not a device's, and the network is the loopback
// interface.
type environment struct {
	Network      string  `json:"network"`
	StateDirFS   string  `json:"state_dir_fs"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Clients      int     `json:"clients"`
	Loop         string  `json:"loop"`
	GoVersion    string  `json:"go"`
	DaemonBuildS float64 `json:"harness.build_s"`
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	repeats  int
	mode     string // -trace: "", "0" or "1"
	traceOut string
	out      string
	compare  bool
	smoke    bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op-script generator; the daemon's own seed stays 1")
	flag.IntVar(&o.seconds, "seconds", 15, "timed seconds per workload and run, split evenly over the repeats")
	flag.IntVar(&o.repeats, "repeats", 5, "fresh daemons per workload in the end-to-end run; the median is reported")
	flag.StringVar(&o.mode, "trace", "", "0: end-to-end run only, 1: traced per-layer run only (default: both)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as Chrome trace_event JSON")
	flag.StringVar(&o.out, "out", "", "write the full report here (default bench/out/latest.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare a.json b.json")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload at about 200 requests, one repeat: a self-check, not a measurement")
	flag.Parse()
	o.args = flag.Args()
	// The clients decode every reply, and their garbage collector would
	// take CPU from the daemon they are timing on a two-CPU host. The
	// bench's heap is a few MB; let it grow.
	debug.SetGCPercent(400)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, filepath.Join(root, "BENCHMARK.json"), o.args[0], o.args[1])
	}
	if runtime.GOOS != "linux" {
		return fmt.Errorf("needs Linux: daemon CPU and memory are read from /proc")
	}
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected arguments %q", o.args)
	}
	if o.mode != "" && o.mode != "0" && o.mode != "1" {
		return fmt.Errorf("-trace takes 0 or 1, not %q", o.mode)
	}
	if o.seconds < 1 || o.repeats < 1 {
		return fmt.Errorf("-seconds and -repeats must be at least 1")
	}
	picked := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		picked = []*workload{w}
	}
	if o.out == "" {
		o.out = filepath.Join(root, "bench", "out", "latest.json")
	}

	// Everything the run writes stays inside the checkout, under the
	// git-ignored .bench_build. The state dirs' filesystem is what fsync
	// costs are measured on.
	build := filepath.Join(root, ".bench_build")
	h, err := newHarness(root, build, filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())), o.seed)
	if err != nil {
		return err
	}
	h.window = time.Duration(o.seconds) * time.Second / time.Duration(o.repeats)
	h.stretch = time.Duration(o.seconds) * time.Second / tracedShare
	if o.smoke {
		h.ops, h.window, h.restarts, o.repeats = smokeOps, 0, 1, 1
		picked = smokeSized(picked)
	}

	rep := &report{Env: h.env, Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats}
	fmt.Printf("griphond benchmark: %s, state dir on %s, GOMAXPROCS %d of %d CPUs, %d closed-loop clients, seed %d\n",
		h.env.Network, h.env.StateDirFS, h.env.GOMAXPROCS, h.env.NumCPU, h.clients, o.seed)
	fmt.Printf("harness.build_s %.2f s (not part of any metric); fsync latency is this filesystem's, not a device's\n", h.env.DaemonBuildS)

	var passes []*tracer
	ok := true
	for _, w := range picked {
		if o.mode != "1" {
			res, err := h.endToEnd(w, o.repeats)
			if err != nil {
				return err
			}
			rep.EndToEnd = append(rep.EndToEnd, res)
			printResult(res, "end to end, tracing off", endToEndMetrics)
			ok = ok && res.Correct
		}
		if o.mode != "0" {
			res, tr, err := h.traced(w)
			if err != nil {
				return err
			}
			rep.PerLayer = append(rep.PerLayer, res)
			passes = append(passes, tr...)
			printResult(res, "per layer, traced", perLayerMetrics)
			ok = ok && res.Correct
		}
	}

	if err := writeJSON(o.out, rep); err != nil {
		return err
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := writeTrace(f, passes); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check failed; see the results above and the daemon logs in %s", h.workDir)
	}
	return os.RemoveAll(h.workDir)
}

// tracedShare of -seconds is the length of each of the traced run's six timed
// stretches; its set-ups and isolated drives take about as long again.
const tracedShare = 10

// smokeOps is the request count per run under -smoke.
const smokeOps = 200

// smokeSized returns copies of the workloads with a tenth of the history, so
// that set-up does not outlast the 200 requests it prepares for.
func smokeSized(ws []*workload) []*workload {
	out := make([]*workload, len(ws))
	for i, w := range ws {
		c := *w
		c.historyCycles /= 10
		out[i] = &c
	}
	return out
}

// newHarness builds griphond into binDir and readies workDir for state dirs
// and daemon logs.
func newHarness(root, binDir, workDir string, seed int64) (*harness, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildDaemon(root, binDir)
	if err != nil {
		return nil, err
	}
	h := &harness{workDir: workDir, daemonBin: bin, seed: seed, restarts: 5}
	// One process generates the load, so never more clients than CPUs.
	h.clients = min(runtime.NumCPU(), 4)
	h.env = environment{
		Network:      "loopback TCP",
		StateDirFS:   fsType(workDir),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Clients:      h.clients,
		Loop:         "closed",
		GoVersion:    runtime.Version(),
		DaemonBuildS: took.Seconds(),
	}
	return h, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the benchmark contract asks for as the last line of a run.
func printResult(res *result, what string, specs []metricSpec) {
	fmt.Printf("\n== %s: %s ==\n", res.Workload, what)
	for _, m := range specs {
		s := res.Metrics[m.Name]
		line := fmt.Sprintf("%-30s %14.4f %-5s", m.Name, s.Value, s.Unit)
		if s.Min != s.Max {
			line += fmt.Sprintf("  min %.4f max %.4f", s.Min, s.Max)
		}
		if s.N > 0 {
			line += fmt.Sprintf("  n=%d", s.N)
		}
		fmt.Println(line)
	}
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	if res.err != nil {
		fmt.Println("  FAILED:", res.err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		last.Metrics[n] = value{res.Metrics[n].Value, res.Metrics[n].Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err) // only floats and strings; NaN is the one way in, and a bug
	}
	fmt.Println(string(b))
}
