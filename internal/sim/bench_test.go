package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkTimerStop(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := k.After(time.Hour, func() {})
		t.Stop()
	}
	k.Run()
}

func BenchmarkJobChain(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGraph(k)
		wait := g.Node(func() *Job { return k.AfterJob(time.Second, nil) })
		do := g.Node(func() *Job { return k.CompletedJob(nil) })
		wait2 := g.Node(func() *Job { return k.AfterJob(time.Second, nil) })
		g.Edge(wait, do)
		g.Edge(do, wait2)
		g.Go()
		if i%256 == 255 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkRandDistributions(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.ExpDuration(time.Minute)
		_ = r.Jitter(time.Second, 0.05)
	}
}
