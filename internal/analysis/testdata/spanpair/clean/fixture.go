package fixture

import (
	"errors"

	"griphon/internal/obs"
)

// deferred ends via defer: covered on every path.
func deferred(tr *obs.Tracer, parent obs.SpanRef, fail bool) error {
	sp := tr.Start(parent, "op:setup")
	defer sp.End()
	if fail {
		return errors.New("blocked")
	}
	return nil
}

// callback hands the span to a completion closure — the async EMS pattern:
// the job ends the span when it finishes.
func callback(tr *obs.Tracer, parent obs.SpanRef, onDone func(func(error))) {
	sp := tr.Start(parent, "op:xc")
	onDone(func(err error) { sp.EndErr(err) })
}

// escapes returns the span: ownership (and the duty to End) moves to the
// caller.
func escapes(tr *obs.Tracer, parent obs.SpanRef) obs.SpanRef {
	sp := tr.Start(parent, "op:child")
	return sp
}

// endedOnAllPaths ends explicitly before each exit.
func endedOnAllPaths(tr *obs.Tracer, parent obs.SpanRef, fail bool) error {
	sp := tr.Start(parent, "op:roll")
	if fail {
		sp.EndOutcome("blocked")
		return errors.New("blocked")
	}
	sp.End()
	return nil
}

// everyArmReturns ends and returns in every arm of a switch with a default:
// the closing brace of the function is unreachable, so nothing falls off it.
func everyArmReturns(tr *obs.Tracer, parent obs.SpanRef, kind int) {
	sp := tr.Start(parent, "op:dispatch")
	switch kind {
	case 0:
		sp.EndOutcome("noop")
		return
	case 1:
		sp.EndErr(errors.New("refused"))
		return
	default:
		sp.End()
		return
	}
}

// perIteration starts a span in a loop body and ends it before both the
// continue and the fall-through to the next iteration.
func perIteration(tr *obs.Tracer, parent obs.SpanRef, steps []bool) {
	for _, skip := range steps {
		sp := tr.Start(parent, "op:step")
		if skip {
			sp.EndOutcome("skipped")
			continue
		}
		sp.End()
	}
}
