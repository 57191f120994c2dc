package obs

import "time"

// Stopwatch is the package's clock primitive: every duration measured in
// this repository starts from one of these, so the `timing` analyzer of
// hsd-vet can confine raw time.Now calls to this file. A Stopwatch is a
// value; copying one copies its start instant.
type Stopwatch struct{ start time.Time }

// NewStopwatch starts a stopwatch at the current instant.
func NewStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since the stopwatch started.
func (w Stopwatch) Elapsed() time.Duration { return time.Since(w.start) }
