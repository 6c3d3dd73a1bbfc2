package sim

import (
	"errors"
	"testing"
	"time"
)

// after is a test helper: a node run function that takes d and fails with err.
func after(k *Kernel, d Duration, err error) func() *Job {
	return func() *Job { return k.AfterJob(d, err) }
}

func TestGraphDiamondTiming(t *testing.T) {
	// root -> {left 5s, right 3s} -> sink 2s. The sink starts when the
	// slower branch ends (5s), not after the sum (8s).
	k := NewKernel(1)
	g := NewGraph(k)
	root := g.Node(after(k, 1*time.Second, nil))
	left := g.Node(after(k, 5*time.Second, nil))
	right := g.Node(after(k, 3*time.Second, nil))
	var sinkStart Time
	sink := g.Node(func() *Job {
		sinkStart = k.Now()
		return k.AfterJob(2*time.Second, nil)
	})
	g.Edge(root, left)
	g.Edge(root, right)
	g.Edge(left, sink)
	g.Edge(right, sink)
	job := g.Go()
	k.Run()
	if err := job.Err(); err != nil {
		t.Fatalf("graph failed: %v", err)
	}
	if want := Time(0).Add(6 * time.Second); sinkStart != want {
		t.Errorf("sink started at %v, want %v (after the slower branch)", sinkStart, want)
	}
	if want := 8 * time.Second; job.Elapsed() != want {
		t.Errorf("graph took %v, want %v", job.Elapsed(), want)
	}
}

func TestGraphFailureSkipsDependents(t *testing.T) {
	// root -> bad -> skipped -> skipped2, root -> good. The independent
	// branch still runs; the dependents of the failure never start.
	k := NewKernel(1)
	boom := errors.New("boom")
	g := NewGraph(k)
	started := map[string]bool{}
	mark := func(name string, d Duration, err error) func() *Job {
		return func() *Job {
			started[name] = true
			return k.AfterJob(d, err)
		}
	}
	root := g.Node(mark("root", time.Second, nil))
	bad := g.Node(mark("bad", time.Second, boom))
	dep := g.Node(mark("dep", time.Second, nil))
	dep2 := g.Node(mark("dep2", time.Second, nil))
	good := g.Node(mark("good", 10*time.Second, nil))
	g.Edge(root, bad)
	g.Edge(root, good)
	g.Edge(bad, dep)
	g.Edge(dep, dep2)
	job := g.Go()
	k.Run()
	if !errors.Is(job.Err(), boom) {
		t.Fatalf("graph err = %v, want %v", job.Err(), boom)
	}
	if started["dep"] || started["dep2"] {
		t.Error("dependents of the failed node started")
	}
	if !started["good"] {
		t.Error("independent branch did not run")
	}
	// The graph completes only when the independent branch finishes.
	if want := 11 * time.Second; job.Elapsed() != want {
		t.Errorf("graph took %v, want %v (waits for the independent branch)", job.Elapsed(), want)
	}
}

func TestGraphFirstErrorInCreationOrder(t *testing.T) {
	// Two failing roots: the slow one was created first, so its error wins
	// even though the fast one completes first.
	k := NewKernel(1)
	errSlow := errors.New("slow")
	errFast := errors.New("fast")
	g := NewGraph(k)
	g.Node(after(k, 5*time.Second, errSlow))
	g.Node(after(k, 1*time.Second, errFast))
	job := g.Go()
	k.Run()
	if !errors.Is(job.Err(), errSlow) {
		t.Errorf("graph err = %v, want the first-created node's error %v", job.Err(), errSlow)
	}
}

func TestGraphNilRunBarrier(t *testing.T) {
	// A nil-run node is an instantaneous barrier: fan-in, zero latency.
	k := NewKernel(1)
	g := NewGraph(k)
	a := g.Node(after(k, 2*time.Second, nil))
	b := g.Node(after(k, 3*time.Second, nil))
	barrier := g.Node(nil)
	var tailStart Time
	tail := g.Node(func() *Job {
		tailStart = k.Now()
		return k.AfterJob(time.Second, nil)
	})
	g.Edge(a, barrier)
	g.Edge(b, barrier)
	g.Edge(barrier, tail)
	job := g.Go()
	k.Run()
	if job.Err() != nil {
		t.Fatalf("graph failed: %v", job.Err())
	}
	if want := Time(0).Add(3 * time.Second); tailStart != want {
		t.Errorf("tail started at %v, want %v", tailStart, want)
	}
}

func TestGraphEmptyCompletes(t *testing.T) {
	k := NewKernel(1)
	job := NewGraph(k).Go()
	k.Run()
	if !job.Done() || job.Err() != nil {
		t.Fatalf("empty graph: done=%v err=%v", job.Done(), job.Err())
	}
	if job.Elapsed() != 0 {
		t.Errorf("empty graph took %v, want 0", job.Elapsed())
	}
}

func TestGraphCyclePanics(t *testing.T) {
	// Nodes are declared in a topological order, so the edge that would
	// close a cycle runs backwards and panics when declared.
	k := NewKernel(1)
	g := NewGraph(k)
	a := g.Node(nil)
	b := g.Node(nil)
	g.Edge(a, b)
	defer func() {
		if recover() == nil {
			t.Error("an edge closing a cycle did not panic")
		}
	}()
	g.Edge(b, a)
}

func TestGraphSelfEdgePanics(t *testing.T) {
	k := NewKernel(1)
	g := NewGraph(k)
	a := g.Node(nil)
	defer func() {
		if recover() == nil {
			t.Error("self-edge did not panic")
		}
	}()
	g.Edge(a, a)
}

// chain is a test helper: a graph whose nodes run one after another.
func chain(k *Kernel, runs ...func() *Job) *Job {
	g := NewGraph(k)
	for i, run := range runs {
		if n := g.Node(run); i > 0 {
			g.Edge(n-1, n)
		}
	}
	return g.Go()
}

func TestGraphChainRunsStepsInOrder(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	mark := func() *Job { marks = append(marks, k.Now()); return nil }
	j := chain(k, after(k, 2*time.Second, nil), mark, after(k, 3*time.Second, nil), mark)
	k.Run()
	if !j.Done() || j.Err() != nil {
		t.Fatalf("chain done=%v err=%v", j.Done(), j.Err())
	}
	if len(marks) != 2 || marks[0] != Time(2*time.Second) || marks[1] != Time(5*time.Second) {
		t.Errorf("marks = %v, want [2s 5s]", marks)
	}
	if j.Elapsed() != 5*time.Second {
		t.Errorf("Elapsed = %v, want 5s", j.Elapsed())
	}
}

func TestGraphChainStopsOnError(t *testing.T) {
	k := NewKernel(1)
	boom := errors.New("boom")
	ran := false
	j := chain(k,
		func() *Job { return k.CompletedJob(boom) },
		func() *Job { ran = true; return nil })
	k.Run()
	if j.Err() != boom {
		t.Errorf("err = %v, want boom", j.Err())
	}
	if ran {
		t.Error("step after failing step still ran")
	}
}

func TestGraphChainNilStep(t *testing.T) {
	k := NewKernel(1)
	j := chain(k, func() *Job { return nil }, after(k, time.Second, nil))
	k.Run()
	if !j.Done() || j.Err() != nil {
		t.Fatalf("done=%v err=%v", j.Done(), j.Err())
	}
	if j.Elapsed() != time.Second {
		t.Errorf("Elapsed = %v, want 1s", j.Elapsed())
	}
}

func TestGraphDuplicateEdgeCountsOnce(t *testing.T) {
	k := NewKernel(1)
	g := NewGraph(k)
	a := g.Node(after(k, time.Second, nil))
	b := g.Node(after(k, time.Second, nil))
	g.Edge(a, b)
	g.Edge(a, b)
	job := g.Go()
	k.Run()
	if !job.Done() || job.Elapsed() != 2*time.Second {
		t.Errorf("done=%v elapsed=%v, want done after 2s", job.Done(), job.Elapsed())
	}
}

func TestGraphNodeLimit(t *testing.T) {
	k := NewKernel(1)
	g := NewGraph(k)
	for i := 0; i < maxGraphNodes; i++ {
		g.Node(nil)
	}
	g.Edge(0, maxGraphNodes-1)
	defer func() {
		if recover() == nil {
			t.Errorf("node %d did not panic", maxGraphNodes+1)
		}
	}()
	g.Node(nil)
}
