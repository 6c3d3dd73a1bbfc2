package traffic

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
)

func TestFlowConstantRate(t *testing.T) {
	k := sim.NewKernel(1)
	// 10 Gb/s for 1 TB = 8e12 bits / 1e10 bps = 800 s.
	f, err := NewFlow(k, TB)
	if err != nil {
		t.Fatal(err)
	}
	f.SetRate(bw.Rate10G)
	k.Run()
	if !f.Completed() {
		t.Fatal("flow not completed")
	}
	want := 800 * time.Second
	if d := f.Elapsed(); d < want || d > want+time.Millisecond {
		t.Errorf("elapsed = %v, want ~%v", d, want)
	}
	if remaining(f) != 0 {
		t.Errorf("remaining = %v", remaining(f))
	}
	if got := f.size/8 - remaining(f); math.Abs(got-TB) > 1 {
		t.Errorf("transferred = %v", got)
	}
}

func TestFlowRateChangeMidway(t *testing.T) {
	k := sim.NewKernel(1)
	f, _ := NewFlow(k, TB)      // 8e12 bits
	f.SetRate(bw.Rate10G)       // would finish at 800 s
	k.RunFor(400 * time.Second) // half done
	if rem := remaining(f); math.Abs(rem-TB/2) > 1e6 {
		t.Fatalf("remaining at midpoint = %v, want ~%v", rem, TB/2)
	}
	f.SetRate(bw.Rate40G) // 4x speed for the rest: 100 s more
	k.Run()
	want := 500 * time.Second
	if d := f.Elapsed(); d < want || d > want+time.Millisecond {
		t.Errorf("elapsed = %v, want ~%v", d, want)
	}
}

func TestFlowPauseResume(t *testing.T) {
	k := sim.NewKernel(1)
	f, _ := NewFlow(k, TB)
	f.SetRate(bw.Rate10G)
	k.RunFor(100 * time.Second)
	f.SetRate(0) // outage
	k.RunFor(time.Hour)
	if f.Completed() {
		t.Fatal("paused flow completed")
	}
	before := remaining(f)
	k.RunFor(time.Hour)
	if remaining(f) != before {
		t.Error("paused flow made progress")
	}
	f.SetRate(bw.Rate10G)
	k.Run()
	if !f.Completed() {
		t.Fatal("flow never completed after resume")
	}
	// 800 s of transfer time + 2 h pause.
	want := 800*time.Second + 2*time.Hour
	if d := f.Elapsed(); d < want || d > want+time.Millisecond {
		t.Errorf("elapsed = %v, want ~%v", d, want)
	}
}

func TestFlowDoneJobFires(t *testing.T) {
	k := sim.NewKernel(1)
	f, _ := NewFlow(k, 1e9)
	fired := false
	f.done.OnDone(func(error) { fired = true })
	f.SetRate(bw.Rate1G)
	k.Run()
	if !fired {
		t.Error("done job never fired")
	}
}

func TestFlowValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := NewFlow(k, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewFlow(k, -5); err == nil {
		t.Error("negative size accepted")
	}
	f, _ := NewFlow(k, 100)
	f.SetRate(-5) // clamps to pause
	if f.rate != 0 {
		t.Errorf("negative rate = %v, want 0", f.rate)
	}
}

// Property: total transfer time at a constant rate equals size/rate no matter
// how often the (same) rate is re-set.
func TestFlowResetInvariance(t *testing.T) {
	prop := func(nResets uint8) bool {
		k := sim.NewKernel(4)
		f, _ := NewFlow(k, 1e9) // 8e9 bits at 1G = 8 s
		f.SetRate(bw.Rate1G)
		resets := int(nResets%7) + 1
		for i := 1; i <= resets; i++ {
			k.At(sim.Time(i*int(time.Second)), func() { f.SetRate(bw.Rate1G) })
		}
		k.Run()
		d := f.Elapsed()
		return f.Completed() && d >= 8*time.Second && d < 8*time.Second+10*time.Millisecond
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoissonArrivals(t *testing.T) {
	k := sim.NewKernel(2)
	var times []sim.Time
	n := PoissonArrivals(k, time.Minute, sim.Time(2*time.Hour), func(i int) {
		times = append(times, k.Now())
	})
	k.Run()
	if len(times) != n {
		t.Fatalf("fired %d of %d arrivals", len(times), n)
	}
	// Mean 1/min over 2 h: expect ~120, allow wide tolerance.
	if n < 80 || n > 170 {
		t.Errorf("arrivals = %d, want ~120", n)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
	if PoissonArrivals(k, 0, sim.Time(time.Hour), func(int) {}) != 0 {
		t.Error("zero mean accepted")
	}
	if PoissonArrivals(k, time.Minute, k.Now(), nil) != 0 {
		t.Error("nil fn accepted")
	}
}

func TestDiurnal(t *testing.T) {
	peak := Diurnal(sim.Time(20*time.Hour), 20, 0.2)
	trough := Diurnal(sim.Time(8*time.Hour), 20, 0.2)
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("peak = %v, want 1", peak)
	}
	if math.Abs(trough-0.2) > 1e-9 {
		t.Errorf("trough = %v, want 0.2", trough)
	}
	// Clamping.
	if Diurnal(0, 0, -1) < 0 || Diurnal(0, 0, 2) > 1 {
		t.Error("trough clamp failed")
	}
	// Periodicity: same hour next day.
	a := Diurnal(sim.Time(5*time.Hour), 20, 0.1)
	b := Diurnal(sim.Time(29*time.Hour), 20, 0.1)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("not 24 h periodic: %v vs %v", a, b)
	}
}

// remaining settles f and returns its unsent byte count.
func remaining(f *Flow) float64 {
	f.settle()
	return f.left / 8
}
