package fixture

import (
	"errors"

	"griphon/internal/obs"
)

// leakOnError ends the span on the happy path only: the early return leaks
// an open span into the trace.
func leakOnError(tr *obs.Tracer, parent obs.SpanRef, fail bool) error {
	sp := tr.Start(parent, "op:flaky") // want `span sp from Tracer\.Start is not ended on every path`
	if fail {
		return errors.New("ems timeout")
	}
	sp.End()
	return nil
}

// neverEnded starts a track span and never closes it at all.
func neverEnded(tr *obs.Tracer, parent obs.SpanRef) bool {
	sp := tr.StartTrack(parent, "op:idle", "ems") // want `span sp from Tracer\.StartTrack is not ended on every path`
	return sp.Active()
}

// oneArmOnly ends the span when the branch is taken and not otherwise; both
// arms run on to the same return.
func oneArmOnly(tr *obs.Tracer, parent obs.SpanRef, done bool) bool {
	sp := tr.Start(parent, "op:probe") // want `span sp from Tracer\.Start is not ended on every path`
	if done {
		sp.End()
	}
	return done
}
