package trace

import (
	"time"

	"hotspot/internal/obs"
)

// Stage times one pipeline stage with a single clock reading. It holds
// the stage's stopwatch, its summary (resolved once by the caller, nil
// for a span-only stage) and its span (nil when tracing is dark). End
// hands one reading to both the summary and the span, so a stage's
// /metrics series and its trace spans can never disagree.
//
// Summaries count completed work only: code whose stage fails or is
// refused calls Abort (or Done with the error), which closes the span
// with its duration but leaves the summary alone.
//
// Stage is a small value: end it exactly once, with End, Abort or Done,
// on whichever goroutine it was handed to (a serve request's queue stage
// starts in the handler and ends on the flush loop). A stage without a
// span allocates nothing, and one with neither a span nor a summary does
// not read the clock.
type Stage struct {
	watch obs.Stopwatch
	sum   *obs.Summary
	sp    *Span
}

// Time starts a stage that records into sum alone, for code with no trace
// to join.
func Time(sum *obs.Summary) Stage {
	return Stage{sum: sum}.started()
}

// started starts st's clock when st has a sink to record into.
func (st Stage) started() Stage {
	if st.sum != nil || st.sp != nil {
		st.watch = obs.NewStopwatch()
	}
	return st
}

// Span returns the stage's span — the parent for nested stages and the
// holder of the stage's attributes — or nil when tracing is dark.
//
//hsd:noalloc
func (st Stage) Span() *Span { return st.sp }

// Trace returns the trace the stage belongs to, or nil when tracing is
// dark.
//
//hsd:noalloc
func (st Stage) Trace() *Trace {
	if st.sp == nil {
		return nil
	}
	return st.sp.tr
}

// End reads the stage's clock once and returns the reading after handing
// it to the summary (tagged with the trace ID as its exemplar when
// tracing is lit) and to the span. Ending a root stage files its trace.
// A stage with neither sink returns 0.
//
//hsd:noalloc
func (st Stage) End() time.Duration {
	if st.sum == nil && st.sp == nil {
		return 0
	}
	d := st.watch.Elapsed()
	st.end(d)
	return d
}

func (st Stage) end(d time.Duration) {
	if st.sum != nil {
		if st.sp != nil {
			st.sum.ObserveExemplar(d.Seconds(), st.sp.tr.idStr)
		} else {
			st.sum.ObserveDuration(d)
		}
	}
	st.sp.end(d)
}

// Abort closes the stage's span without observing its summary, for
// refused or failed work. Aborting a root stage still files its trace,
// kept as an error when SetStatus or SetError marked it so.
func (st Stage) Abort() {
	if st.sp != nil {
		st.sp.end(st.watch.Elapsed())
	}
}

// Done ends the stage when err is nil and aborts it otherwise, then
// returns err.
func (st Stage) Done(err error) error {
	if err != nil {
		st.Abort()
	} else {
		st.End()
	}
	return err
}
