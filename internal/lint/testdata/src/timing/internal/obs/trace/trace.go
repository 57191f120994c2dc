// Package trace models internal/obs/trace for the timing policy: its
// path ends in internal/obs/trace, which does NOT suffix-match the
// internal/obs exemption — the trace layer is held to the same clock
// discipline as the rest of the tree. Its stages read obs.Stopwatch,
// never the wall clock directly.
package trace

import "time"

// stamp is the breach the fixture pins: a recorder reading the clock
// directly instead of taking an externally measured duration.
func stamp() time.Time {
	return time.Now() // want "raw time.Now outside internal/obs"
}

var _ = stamp
