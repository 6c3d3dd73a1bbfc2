package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(2*time.Second, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
}

func TestKernelTieBreakFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var fired []string
	k.After(time.Second, func() {
		fired = append(fired, "a")
		k.After(time.Second, func() { fired = append(fired, "c") })
	})
	k.After(1500*time.Millisecond, func() { fired = append(fired, "b") })
	k.Run()
	want := "abc"
	var s string
	for _, f := range fired {
		s += f
	}
	if s != want {
		t.Errorf("fired = %q, want %q", s, want)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(Time(0), func() {})
}

// TestTimeAddSaturates: the clock stops at Forever instead of wrapping, so an
// event scheduled past it fires at it and never lands in the past.
func TestTimeAddSaturates(t *testing.T) {
	if got := Time(time.Second).Add(math.MaxInt64); got != Forever {
		t.Errorf("1s + MaxInt64 = %v, want Forever", got)
	}
	if got := (Forever - 1).Add(time.Hour); got != Forever {
		t.Errorf("Forever-1 + 1h = %v, want Forever", got)
	}
	if got := Time(5).Add(-3); got != 2 {
		t.Errorf("5 - 3 = %v", got)
	}
	k := NewKernel(1)
	k.RunUntil(Forever - Time(time.Second))
	fired := false
	k.After(time.Minute, func() { fired = true })
	k.Run()
	if !fired || k.Now() != Forever {
		t.Errorf("event past the end: fired=%v now=%v", fired, k.Now())
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(time.Second, func() {})
	k.Run()
	if tm.Stop() {
		t.Fatal("Stop returned true after timer fired")
	}
}

func TestTimerStopMiddleOfQueue(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(1*time.Second, func() { got = append(got, 1) })
	tm := k.After(2*time.Second, func() { got = append(got, 2) })
	k.After(3*time.Second, func() { got = append(got, 3) })
	tm.Stop()
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var count int
	for i := 1; i <= 5; i++ {
		k.After(time.Duration(i)*time.Second, func() { count++ })
	}
	k.RunUntil(Time(3 * time.Second))
	if count != 3 {
		t.Errorf("count = %d after RunUntil(3s), want 3", count)
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("Now = %v, want 3s", k.Now())
	}
	k.Run()
	if count != 5 {
		t.Errorf("count = %d after Run, want 5", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(time.Hour)
	if k.Now() != Time(time.Hour) {
		t.Errorf("Now = %v, want 1h", k.Now())
	}
}

// TestAlign: Align moves the clock forward and never back, runs nothing, and
// refuses to pass a pending event.
func TestAlign(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(time.Hour, func() { ran = true })
	k.Align(Time(time.Hour))
	k.Align(Time(time.Minute))
	if k.Now() != Time(time.Hour) || ran {
		t.Errorf("after Align: Now = %v, ran = %v; want 1h and nothing run", k.Now(), ran)
	}
	defer func() {
		if recover() == nil {
			t.Error("Align past a pending event did not panic")
		}
	}()
	k.Align(Time(2 * time.Hour))
}

func TestDeferRunsAtCurrentInstant(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.After(time.Second, func() {
		k.Defer(func() { at = k.Now() })
	})
	k.Run()
	if at != Time(time.Second) {
		t.Errorf("deferred callback ran at %v, want 1s", at)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []float64 {
		k := NewKernel(seed)
		var out []float64
		for i := 0; i < 50; i++ {
			d := k.Rand().ExpDuration(time.Minute)
			k.After(d, func() { out = append(out, k.Now().Seconds()) })
		}
		k.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical runs")
	}
}

// Property: however events are scheduled, execution order is sorted by
// (time, schedule order), and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(7)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			at := Time(time.Duration(d) * time.Millisecond)
			k.At(at, func() { fired = append(fired, rec{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		var last Time = -1
		for _, f := range fired {
			if f.at < last {
				return false
			}
			last = f.at
		}
		// Same-instant events must fire in scheduling order.
		for i := 1; i < len(fired); i++ {
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	u := epoch.Add(90 * time.Second)
	if u.Sub(epoch) != 90*time.Second {
		t.Errorf("Sub = %v, want 90s", u.Sub(epoch))
	}
	if !epoch.Before(u) || !u.After(epoch) {
		t.Error("Before/After inconsistent")
	}
	if u.Seconds() != 90 {
		t.Errorf("Seconds = %v, want 90", u.Seconds())
	}
	if u.String() != "1m30s" {
		t.Errorf("String = %q, want 1m30s", u.String())
	}
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(time.Second, func() {})
	if tm.ev.at != Time(time.Second) {
		t.Errorf("When = %v", tm.ev.at)
	}
	if k.queue.Len() != 1 {
		t.Errorf("Pending = %d", k.queue.Len())
	}
	k.Run()
	if k.Processed() != 1 {
		t.Errorf("Processed = %d", k.Processed())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-time.Second, func() {})
}

func TestRandSmallHelpers(t *testing.T) {
	r := NewRand(1)
	if v := r.Float64(); v < 0 || v >= 1 {
		t.Errorf("Float64 = %v", v)
	}
	if v := r.Intn(10); v < 0 || v >= 10 {
		t.Errorf("Intn = %v", v)
	}
	perm := r.Perm(5)
	seen := map[int]bool{}
	for _, p := range perm {
		seen[p] = true
	}
	if len(seen) != 5 {
		t.Errorf("Perm = %v", perm)
	}
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	r.Exp(0)
}

func TestPeekSkipsCancelled(t *testing.T) {
	k := NewKernel(1)
	t1 := k.After(time.Second, func() {})
	fired := false
	k.After(2*time.Second, func() { fired = true })
	t1.Stop()
	// RunUntil exercises peek over the cancelled head.
	k.RunUntil(Time(3 * time.Second))
	if !fired {
		t.Error("event after cancelled head did not fire")
	}
}

func TestJobStartEndAccessors(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(time.Minute)
	j := k.AfterJob(time.Second, nil)
	if j.start != Time(time.Minute) {
		t.Errorf("Start = %v", j.start)
	}
	k.Run()
	if j.End() != Time(time.Minute+time.Second) {
		t.Errorf("End = %v", j.End())
	}
}
