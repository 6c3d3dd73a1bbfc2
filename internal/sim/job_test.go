package sim

import (
	"errors"
	"testing"
	"time"
)

func TestAfterJob(t *testing.T) {
	k := NewKernel(1)
	j := k.AfterJob(5*time.Second, nil)
	if j.Done() {
		t.Fatal("job done before Run")
	}
	var doneAt Time
	j.OnDone(func(err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		doneAt = k.Now()
	})
	k.Run()
	if !j.Done() {
		t.Fatal("job not done after Run")
	}
	if doneAt != Time(5*time.Second) {
		t.Errorf("completed at %v, want 5s", doneAt)
	}
	if j.Elapsed() != 5*time.Second {
		t.Errorf("Elapsed = %v, want 5s", j.Elapsed())
	}
}

func TestJobErrPropagates(t *testing.T) {
	k := NewKernel(1)
	boom := errors.New("boom")
	j := k.AfterJob(time.Second, boom)
	var got error
	j.OnDone(func(err error) { got = err })
	k.Run()
	if got != boom {
		t.Errorf("err = %v, want boom", got)
	}
	if j.Err() != boom {
		t.Errorf("Err() = %v, want boom", j.Err())
	}
}

func TestOnDoneAfterCompletion(t *testing.T) {
	k := NewKernel(1)
	j := k.CompletedJob(nil)
	fired := false
	j.OnDone(func(error) { fired = true })
	if fired {
		t.Fatal("late OnDone fired synchronously; must defer")
	}
	k.Run()
	if !fired {
		t.Fatal("late OnDone never fired")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	k := NewKernel(1)
	j := k.NewJob()
	j.Complete(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	j.Complete(nil)
}

func TestAllWaitsForEveryJob(t *testing.T) {
	k := NewKernel(1)
	a := k.AfterJob(1*time.Second, nil)
	b := k.AfterJob(3*time.Second, nil)
	c := k.AfterJob(2*time.Second, nil)
	all := All(k, a, b, c)
	var doneAt Time
	all.OnDone(func(err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		doneAt = k.Now()
	})
	k.Run()
	if doneAt != Time(3*time.Second) {
		t.Errorf("All completed at %v, want 3s (slowest child)", doneAt)
	}
}

func TestAllFirstError(t *testing.T) {
	k := NewKernel(1)
	e1 := errors.New("first")
	e2 := errors.New("second")
	a := k.AfterJob(1*time.Second, e1)
	b := k.AfterJob(2*time.Second, e2)
	all := All(k, a, b)
	k.Run()
	if all.Err() != e1 {
		t.Errorf("All err = %v, want first error by argument order", all.Err())
	}
}

// TestAllFirstErrorByArgumentOrder pins the batch-error contract: when jobs on
// independently-paced executors complete out of submission order, All must
// still report the first failing job by argument order, not whichever error
// happened to land first on the virtual clock.
func TestAllFirstErrorByArgumentOrder(t *testing.T) {
	k := NewKernel(1)
	errA := errors.New("a")
	errB := errors.New("b")
	a := k.AfterJob(2*time.Second, errA) // argument 0, completes second
	b := k.AfterJob(1*time.Second, errB) // argument 1, completes first
	all := All(k, a, b)
	k.Run()
	if all.Err() != errA {
		t.Errorf("All err = %v, want errA (first by argument order)", all.Err())
	}

	// A healthy early argument must not mask a later argument's error.
	c := k.AfterJob(1*time.Second, nil)
	d := k.AfterJob(3*time.Second, errB)
	all2 := All(k, c, d)
	k.Run()
	if all2.Err() != errB {
		t.Errorf("All err = %v, want errB", all2.Err())
	}
}

func TestAllEmpty(t *testing.T) {
	k := NewKernel(1)
	all := All(k)
	k.Run()
	if !all.Done() || all.Err() != nil {
		t.Errorf("empty All: done=%v err=%v", all.Done(), all.Err())
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(1)
	const n = 20000

	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(10)
		if v < 0 {
			t.Fatal("Exp returned negative")
		}
		sum += v
	}
	if mean := sum / n; mean < 9 || mean > 11 {
		t.Errorf("Exp mean = %v, want ~10", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		v := r.Uniform(5, 15)
		if v < 5 || v >= 15 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 9.8 || mean > 10.2 {
		t.Errorf("Uniform mean = %v, want ~10", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; mean < 9.8 || mean > 10.2 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
}

func TestJitterStaysPositive(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		d := r.Jitter(time.Second, 0.5)
		if d <= 0 {
			t.Fatalf("Jitter returned non-positive %v", d)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Error("Jitter of zero base should be zero")
	}
}

func TestUniformDuration(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		d := r.UniformDuration(4*time.Hour, 12*time.Hour)
		if d < 4*time.Hour || d >= 12*time.Hour {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if d := r.UniformDuration(time.Hour, time.Hour); d != time.Hour {
		t.Errorf("degenerate range: %v, want 1h", d)
	}
}
