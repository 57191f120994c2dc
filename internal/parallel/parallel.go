// Package parallel is the shared data-parallel execution substrate: a
// bounded worker pool with stable worker identities and deterministic,
// index-ordered result collection. Every batch-level fan-out in the
// repository — mini-batch gradient computation (train.MGD), sample-set
// scoring (train.Evaluator, core.Detector.Evaluate), feature-tensor
// extraction (feature.ExtractTensors, internal/dataset) and lithography
// labelling (internal/layout) — runs on this package so the concurrency
// model lives in one place.
//
// Determinism contract: For hands out item indices dynamically (workers
// race for the next index), so *which* worker processes an item is
// scheduler-dependent — but callers receive the worker id, keep all mutable
// state per worker, and write results into index-addressed slots. As long
// as item i's result depends only on i (and on per-worker state that is
// re-initialized per item), outputs are bit-identical under any worker
// count. Reductions over the slots then happen in index order on the
// caller's goroutine.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/obs"
)

// defaultWorkers holds the process-wide default worker count; 0 means
// runtime.GOMAXPROCS(0) resolved at use time. Command-line tools set it
// once at startup from their -workers flag.
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a Pool
// is built with workers <= 0. n <= 0 restores the GOMAXPROCS default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current default worker count: the value set with
// SetDefault, or runtime.GOMAXPROCS(0) when unset.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a configured worker count: values <= 0 mean Default().
func Workers(n int) int {
	if n <= 0 {
		return Default()
	}
	return n
}

// Pool is a bounded worker pool. The zero value is not usable; build one
// with New. A Pool carries no goroutines between calls — each For call
// spawns at most Size goroutines and joins them before returning — so a
// Pool is safe for reuse and costs nothing while idle.
type Pool struct {
	workers int

	// Instrumentation handles, resolved once at New so the hot paths
	// never touch the registry's lock or allocate label strings. Fan-out
	// passes record wall time (parallel/pass), per-worker kickoff latency
	// (parallel/queue) and the busy fraction of the worker set
	// (hsd_parallel_utilization). Observation only — nothing here feeds
	// the computation, and the serial (one-worker) inline path stays
	// completely uninstrumented.
	passSum  *obs.Summary
	queueSum *obs.Summary
	utilSum  *obs.Summary
}

// New builds a pool with the given worker bound; workers <= 0 means
// Default().
func New(workers int) *Pool {
	reg := obs.Default()
	return &Pool{
		workers:  Workers(workers),
		passSum:  reg.Stage("parallel/pass"),
		queueSum: reg.Stage("parallel/queue"),
		utilSum:  reg.Summary("hsd_parallel_utilization", 0),
	}
}

// observePass records one parallel pass: wall time, each worker's wake
// latency (time from kickoff to its loop starting), and the aggregate
// utilization busy/(workers·wall). Called on the orchestrating goroutine
// after the join, so workers never contend on summary locks.
func (p *Pool) observePass(wall time.Duration, wake, busy []time.Duration) {
	p.passSum.ObserveDuration(wall)
	var total time.Duration
	for i := range busy {
		total += busy[i]
		p.queueSum.ObserveDuration(wake[i])
	}
	if wall > 0 {
		p.utilSum.Observe(float64(total) / (float64(len(busy)) * float64(wall)))
	}
}

// Size returns the pool's worker bound.
func (p *Pool) Size() int { return p.workers }

// For runs fn(worker, i) for every i in [0, n), fanning out across at most
// Size workers. worker is a stable id in [0, Size) for per-worker state
// (network shadows, scratch buffers). Item order within a worker is not
// specified; see the package comment for the determinism contract.
//
// All n items are attempted even when some fail; the returned error is the
// one from the lowest item index, so error reporting is deterministic
// under any worker count. With one worker (or one item) everything runs
// inline on the calling goroutine — no goroutines, no synchronization.
//
//hsd:hotpath
func (p *Pool) For(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	watch := obs.NewStopwatch()
	wake := make([]time.Duration, w)
	busy := make([]time.Duration, w)
	for worker := 0; worker < w; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wake[worker] = watch.Elapsed()
			workerWatch := obs.NewStopwatch()
			defer func() { busy[worker] = workerWatch.Elapsed() }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}(worker)
	}
	wg.Wait()
	p.observePass(watch.Elapsed(), wake, busy)
	return firstErr
}

// Map runs fn(worker, i) for every i in [0, n) on the pool and returns the
// results in index order, giving callers a deterministic reduction order
// for free. On error the first (lowest-index) error is returned and the
// results are discarded.
func Map[T any](p *Pool, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.For(n, func(worker, i int) error {
		v, err := fn(worker, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
