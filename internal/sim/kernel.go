// Package sim provides the discrete-event simulation kernel that all GRIPhoN
// substrates run on: a virtual clock, an event queue with deterministic
// ordering, cancellable timers, async jobs, and a seeded random source.
//
// Nothing in this repository sleeps on the wall clock. Every latency — an EMS
// configuration step, laser tuning, a repair crew driving to a fiber cut —
// advances the kernel's virtual time, so experiments spanning simulated weeks
// finish in milliseconds and replay bit-identically for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start of
// the simulation. The zero Time is the simulation epoch.
type Time int64

// Duration re-exports time.Duration so callers express latencies in familiar
// units (sim.Duration(3*time.Second) etc.) without importing both packages.
type Duration = time.Duration

// Add returns the time t+d, saturating at Forever: a duration from outside
// (an API request, a flag) cannot wrap the clock into the past.
func (t Time) Add(d Duration) Time {
	if d > 0 && t > Forever-Time(d) {
		return Forever
	}
	return t + Time(d)
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats t as a duration offset from the simulation epoch.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns t as a floating-point number of seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Forever is the last instant the clock can show; Add stops there.
const Forever Time = math.MaxInt64

// event is a scheduled callback. Events at the same instant fire in the order
// they were scheduled (seq breaks ties) so runs are deterministic.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires.
type Timer struct {
	k  *Kernel
	ev *event
}

// Stop cancels the timer. It reports whether the timer was still pending:
// false means the callback already ran (or Stop was already called).
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return false
	}
	heap.Remove(&t.k.queue, t.ev.index)
	t.ev.fn = nil
	return true
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run in event callbacks on one
// goroutine, which is what makes runs deterministic.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	rng   *Rand

	// processed counts events executed, for diagnostics and loop guards.
	processed uint64
}

// NewKernel returns a kernel whose clock starts at the epoch and whose random
// source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *Rand { return k.rng }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// At schedules fn to run at virtual time at. Scheduling in the past panics:
// it would silently reorder causality.
func (k *Kernel) At(at Time, fn func()) *Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", at, k.now))
	}
	ev := &event{at: at, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, ev)
	return &Timer{k: k, ev: ev}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Defer schedules fn to run at the current instant, after all callbacks
// already queued for this instant. It is the simulation analogue of
// "process this after the current batch".
func (k *Kernel) Defer(fn func()) *Timer { return k.At(k.now, fn) }

// Step executes the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	for k.queue.Len() > 0 {
		ev := heap.Pop(&k.queue).(*event)
		if ev.fn == nil { // cancelled
			continue
		}
		k.now = ev.at
		fn := ev.fn
		ev.fn = nil
		k.processed++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is later than the last event executed).
func (k *Kernel) RunUntil(deadline Time) {
	for k.queue.Len() > 0 {
		next := k.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		k.Step()
	}
	if deadline > k.now {
		k.now = deadline
	}
}

// Align moves the clock forward to t, if t is later, and runs nothing: it
// lets a caller outside this kernel apply an event at t. An event pending
// before t panics, as scheduling in the past does.
func (k *Kernel) Align(t Time) {
	if next := k.peek(); next != nil && next.at < t {
		panic(fmt.Sprintf("sim: aligning on %v past the event pending at %v", t, next.at))
	}
	if t > k.now {
		k.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// NextAt reports the timestamp of the earliest pending event, if any. It
// lets a multi-kernel driver (core.ShardSet) interleave several kernels in
// deterministic global time order without executing anything.
func (k *Kernel) NextAt() (Time, bool) {
	ev := k.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// peek returns the earliest non-cancelled event without removing it.
func (k *Kernel) peek() *event {
	for k.queue.Len() > 0 {
		ev := k.queue[0]
		if ev.fn != nil {
			return ev
		}
		heap.Pop(&k.queue)
	}
	return nil
}
