package sim

// Job is a handle to asynchronous simulated work: an EMS configuration run,
// a multi-step connection setup, a repair. A job completes exactly once, with
// or without an error; callbacks registered before completion fire when it
// completes, callbacks registered after fire immediately (via Defer, so
// ordering stays deterministic).
type Job struct {
	k     *Kernel
	done  bool
	err   error
	start Time
	end   Time
	cbs   []func(error)
}

// NewJob returns a fresh, incomplete job stamped with the current time.
func (k *Kernel) NewJob() *Job {
	return &Job{k: k, start: k.now}
}

// CompletedJob returns a job that is already complete with err, useful when a
// code path finishes synchronously but the caller expects a Job.
func (k *Kernel) CompletedJob(err error) *Job {
	j := k.NewJob()
	j.Complete(err)
	return j
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.done }

// Err returns the job's error. It is only meaningful once Done is true.
func (j *Job) Err() error { return j.err }

// End returns the virtual time the job completed. Zero until Done.
func (j *Job) End() Time { return j.end }

// Elapsed returns how long a completed job ran: from its creation to End.
func (j *Job) Elapsed() Duration { return j.end.Sub(j.start) }

// Complete marks the job done with err and fires pending callbacks in
// registration order. Completing twice panics: it always indicates a
// double-callback bug in the caller.
func (j *Job) Complete(err error) {
	if j.done {
		panic("sim: job completed twice")
	}
	j.done = true
	j.err = err
	j.end = j.k.now
	cbs := j.cbs
	j.cbs = nil
	for _, cb := range cbs {
		cb(err)
	}
}

// OnDone registers fn to run when the job completes. If the job is already
// complete, fn is deferred to the current instant.
func (j *Job) OnDone(fn func(error)) {
	if j.done {
		err := j.err
		j.k.Defer(func() { fn(err) })
		return
	}
	j.cbs = append(j.cbs, fn)
}

// AfterJob returns a job that completes with err after d of virtual time —
// the simulation analogue of a blocking call with a known latency.
func (k *Kernel) AfterJob(d Duration, err error) *Job {
	j := k.NewJob()
	k.After(d, func() { j.Complete(err) })
	return j
}

// All returns a job that completes when every input job has completed. Its
// error is the first non-nil error in argument order — not completion order,
// which for jobs spread across independently-paced executors (e.g. commands on
// two different EMSes) would make the reported error depend on relative
// timing. With no inputs it completes at the current instant.
func All(k *Kernel, jobs ...*Job) *Job {
	out := k.NewJob()
	if len(jobs) == 0 {
		k.Defer(func() { out.Complete(nil) })
		return out
	}
	remaining := len(jobs)
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		i := i
		j.OnDone(func(err error) {
			errs[i] = err
			remaining--
			if remaining == 0 {
				var first error
				for _, e := range errs {
					if e != nil {
						first = e
						break
					}
				}
				out.Complete(first)
			}
		})
	}
	return out
}
