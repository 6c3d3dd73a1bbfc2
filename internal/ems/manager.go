package ems

import (
	"fmt"

	"griphon/internal/obs"
	"griphon/internal/sim"
)

// Command is one unit of EMS work: a named step with a latency and an
// optional apply function that mutates device state when the step completes.
type Command struct {
	// Name describes the step for logs and traces.
	Name string
	// Dur is the step's latency (already jittered by the caller if
	// desired).
	Dur sim.Duration
	// Elem optionally names the element lane the command occupies (a
	// specific ROADM, a laser controller). Commands sharing a lane execute
	// strictly in order; commands on different lanes run concurrently —
	// vendor EMSes can drive independent elements in parallel sessions
	// even though each element accepts one configuration at a time. The
	// empty Elem is the default lane, giving exactly the fully serialized
	// behavior the paper measured.
	Elem string
	// Apply mutates device state at completion; a nil Apply is pure
	// latency. An Apply error fails the command's job.
	Apply func() error
	// Span is the parent trace span the command executes under (the
	// controller operation that submitted it). The zero SpanRef is fine.
	Span obs.SpanRef
}

// lane is one element's serial command stream: at most one command in flight,
// the rest queued in submission order.
type lane struct {
	busy  bool
	queue []*queued
}

// Manager is one vendor EMS (or element controller): a set of strictly serial
// per-element command lanes. Commands targeting the same element (Command.
// Elem) execute one at a time in submission order — an element accepts a
// single configuration dialogue — while commands for different elements run
// concurrently. Callers that never set Elem get a single serial lane, which
// is the paper's measured behavior: one EMS session processing one
// configuration step at a time, a real contributor to its 60–70 s
// provisioning times.
type Manager struct {
	name    string
	k       *sim.Kernel
	lanes   map[string]*lane
	served  uint64
	busyFor sim.Duration
	tracer  *obs.Tracer

	// Fault injection: failNext commands (counting from the next one to
	// execute, across all lanes) fail with failErr. Used by tests and
	// failure-injection experiments to exercise controller rollback paths.
	failNext int
	failErr  error

	// faults, when non-nil, is the probabilistic fault model consulted for
	// every command at dequeue. Deterministic injection (failNext) takes
	// precedence: the model is not consulted while injections are pending.
	faults Injector
}

// Injector decides the fate of a command about to execute — the hook the
// fault model (internal/faults) plugs in through. It returns the duration the
// command should take (possibly inflated past the nominal d) and a non-nil
// error to fail it. A failing command still occupies its lane for the
// returned duration: a vendor timeout burns its window before reporting
// failure.
type Injector interface {
	Decide(ems, cmd string, d sim.Duration) (sim.Duration, error)
}

// SetFaults attaches (or, with nil, detaches) a probabilistic fault model.
func (m *Manager) SetFaults(f Injector) { m.faults = f }

type queued struct {
	cmd       Command
	job       *sim.Job
	submitted sim.Time
}

// NewManager returns an idle EMS with the given display name.
func NewManager(name string, k *sim.Kernel) *Manager {
	return &Manager{name: name, k: k, lanes: make(map[string]*lane)}
}

// Name returns the EMS's display name.
func (m *Manager) Name() string { return m.name }

// SetTracer attaches the observability plane: each executed command gets a
// span on this manager's track, recording its queue wait and outcome. A nil
// tracer (the default) disables tracing at zero cost.
func (m *Manager) SetTracer(t *obs.Tracer) { m.tracer = t }

// QueueLen returns the number of commands waiting across all lanes (not
// counting the ones in flight).
func (m *Manager) QueueLen() int {
	n := 0
	for _, l := range m.lanes {
		n += len(l.queue)
	}
	return n
}

// Served returns the number of commands completed.
func (m *Manager) Served() uint64 { return m.served }

// BusyTime returns the cumulative virtual time spent executing completed
// commands, summed across lanes (concurrent lanes can make this exceed
// elapsed time). Work still in flight is not counted until it finishes.
func (m *Manager) BusyTime() sim.Duration { return m.busyFor }

// InjectFailures makes the next n commands fail with err when they execute
// (vendor EMS timeouts, rejected configurations). Passing n <= 0 clears any
// pending injection.
func (m *Manager) InjectFailures(n int, err error) {
	if n <= 0 {
		m.failNext = 0
		m.failErr = nil
		return
	}
	if err == nil {
		err = fmt.Errorf("ems: %s: injected failure", m.name)
	}
	m.failNext = n
	m.failErr = err
}

// Submit enqueues a command on its element's lane and returns the job that
// completes when the command has executed. Commands on one lane run in
// submission order.
func (m *Manager) Submit(cmd Command) *sim.Job {
	if cmd.Dur < 0 {
		return m.k.CompletedJob(fmt.Errorf("ems: %s: negative duration for %q", m.name, cmd.Name))
	}
	l := m.lanes[cmd.Elem]
	if l == nil {
		l = &lane{}
		m.lanes[cmd.Elem] = l
	}
	q := &queued{cmd: cmd, job: m.k.NewJob(), submitted: m.k.Now()}
	l.queue = append(l.queue, q)
	if !l.busy {
		m.runNext(l)
	}
	return q.job
}

// SubmitBatch enqueues the commands in order and returns a job that completes
// when the last one does (failing with the first command error in batch
// order, but still executing the rest — an EMS does not abort a batch
// midway). Commands with distinct Elems land on distinct lanes, so a batch
// over independent elements executes concurrently while staying atomic at
// enqueue: no other submission can interleave into the lanes between the
// batch's own commands. A batch of one is that command's own job.
func (m *Manager) SubmitBatch(cmds []Command) *sim.Job {
	switch len(cmds) {
	case 0:
		return m.k.CompletedJob(nil)
	case 1:
		return m.Submit(cmds[0])
	}
	jobs := make([]*sim.Job, len(cmds))
	for i, c := range cmds {
		jobs[i] = m.Submit(c)
	}
	return sim.All(m.k, jobs...)
}

func (m *Manager) runNext(l *lane) {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	q := l.queue[0]
	l.queue = l.queue[1:]

	// The command's fate is fixed at dequeue. Deterministic injection takes
	// precedence over the fault model, which may also inflate the duration.
	dur, fail := q.cmd.Dur, error(nil)
	if m.failNext > 0 {
		m.failNext--
		fail = m.failErr
		if m.failNext == 0 {
			m.failErr = nil
		}
	} else if m.faults != nil {
		dur, fail = m.faults.Decide(m.name, q.cmd.Name, dur)
	}

	sp := m.tracer.StartTrack(q.cmd.Span, q.cmd.Name, m.name)
	sp.SetWait(m.k.Now().Sub(q.submitted))
	m.k.After(dur, func() {
		err := fail
		if err == nil && q.cmd.Apply != nil {
			err = q.cmd.Apply()
		}
		m.served++
		// Accrued at completion, not dequeue, so BusyTime never counts
		// in-flight work it has not yet spent.
		m.busyFor += dur
		sp.EndErr(err)
		q.job.Complete(err)
		m.runNext(l)
	})
}
