package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultWindow is the number of samples a Summary retains when the
// creating call does not choose a window.
const DefaultWindow = 1024

// Summary tracks a sliding window of float64 observations (latencies in
// seconds, by convention) and serves exact nearest-rank quantiles over
// that window, plus a lifetime count. It generalizes the ring
// buffer the serving layer used privately before the obs package existed.
// Safe for concurrent use.
type Summary struct {
	mu      sync.Mutex
	buf     []float64
	exs     []string // per-sample exemplar IDs; nil until ObserveExemplar is first used
	n       int      // filled entries, <= len(buf)
	next    int      // next write index
	count   int64
	scratch []float64 // reused quantile sort buffer
}

func newSummary(window int) *Summary {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Summary{
		buf:     make([]float64, window),
		scratch: make([]float64, 0, window),
	}
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.observeLocked(v, "")
	s.mu.Unlock()
}

// ObserveExemplar records one sample tagged with an exemplar ID (by
// convention a trace ID), so the scrape can point at the concrete request
// behind the window's slowest observation. Samples recorded with plain
// Observe carry no exemplar.
func (s *Summary) ObserveExemplar(v float64, exemplar string) {
	s.mu.Lock()
	if s.exs == nil && exemplar != "" {
		s.exs = make([]string, len(s.buf))
	}
	s.observeLocked(v, exemplar)
	s.mu.Unlock()
}

func (s *Summary) observeLocked(v float64, exemplar string) {
	s.buf[s.next] = v
	if s.exs != nil {
		s.exs[s.next] = exemplar // clears any stale exemplar the slot held
	}
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.count++
}

// ObserveDuration records d in seconds.
func (s *Summary) ObserveDuration(d time.Duration) { s.Observe(d.Seconds()) }

// Exemplar returns the window's largest exemplar-tagged observation and
// its exemplar ID; ok is false when no sample in the window carries one.
func (s *Summary) Exemplar() (v float64, exemplar string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exemplarLocked()
}

func (s *Summary) exemplarLocked() (v float64, exemplar string, ok bool) {
	if s.exs == nil {
		return 0, "", false
	}
	for i := 0; i < s.n; i++ {
		if s.exs[i] == "" {
			continue
		}
		if !ok || s.buf[i] > v {
			v, exemplar, ok = s.buf[i], s.exs[i], true
		}
	}
	return v, exemplar, ok
}

// Count returns the lifetime number of observations (not capped by the
// window).
func (s *Summary) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Quantile returns the nearest-rank p-quantile (0 <= p <= 1) over the
// current window, or 0 with no observations. The rank is the ceiling rank
// min(n-1, ceil(p*n)-1): over a full 1024-sample window p99 reads index
// 1013, where the truncation rule int(p*(n-1)) the serve ring used read
// 1012 and under-reported the tail by one rank.
func (s *Summary) Quantile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(p)
}

func (s *Summary) quantileLocked(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.scratch = append(s.scratch[:0], s.buf[:s.n]...)
	sort.Float64s(s.scratch)
	return s.scratch[ceilRank(p, s.n)]
}

// ceilRank maps quantile p over n sorted samples to a 0-based index using
// the nearest-rank (ceiling) definition, clamped to [0, n-1].
func ceilRank(p float64, n int) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// stats returns (lifetime count, window p50, window p99) in one lock
// acquisition and one sort — the scrape path.
func (s *Summary) stats() (count int64, p50, p99 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return s.count, 0, 0
	}
	s.scratch = append(s.scratch[:0], s.buf[:s.n]...)
	sort.Float64s(s.scratch)
	return s.count, s.scratch[ceilRank(0.50, s.n)], s.scratch[ceilRank(0.99, s.n)]
}
