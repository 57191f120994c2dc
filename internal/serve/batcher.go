package serve

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
)

// Sentinel errors surfaced by the request pipeline; the HTTP layer maps
// them to status codes (429, 503).
var (
	// ErrQueueFull is returned when the bounded request queue is at
	// capacity — explicit backpressure instead of unbounded buffering.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrShuttingDown is returned for requests arriving after Close.
	ErrShuttingDown = errors.New("serve: server shutting down")
	// ErrNoModel is returned when no model has been loaded yet.
	ErrNoModel = errors.New("serve: no model loaded")
)

// request is one clip waiting for a prediction: the rasterized core
// window plus its cache key. resp is buffered with capacity 1 and receives
// exactly one result, so the flush loop never blocks on a caller that
// timed out and walked away.
type request struct {
	im   *raster.Rows
	key  uint64
	resp chan result
	// queue is the request's queue-wait stage, started by the handler
	// just before enqueue and ended by the flush loop when a batch picks
	// the request up.
	queue trace.Stage
}

// result is the outcome delivered back to the waiting handler.
type result struct {
	prob float64
	err  error
}

// batcher coalesces concurrent single-clip requests into micro-batches.
// Handlers enqueue onto a bounded channel; one flush loop drains it,
// closing a batch when it reaches maxBatch clips or when maxWait has
// elapsed since the batch's first clip, and runs the batch through the
// two-stage pipeline (feature extraction fan-out, then batched CNN
// inference on the evaluator's per-worker fused engines).
//
// Determinism: each clip's tensor and probability depend only on that
// clip and the current model — extraction and inference are pure
// per-item functions running on parallel.Map's index-addressed slots — so
// how requests happen to group into batches cannot change any response
// bit. The parity test in serve_test.go holds the server to that.
type batcher struct {
	srv      *Server
	queue    chan *request
	maxBatch int
	maxWait  time.Duration
	pool     *parallel.Pool

	stop chan struct{} // closed by Close: stop filling, drain, exit
	done chan struct{} // closed by the flush loop on exit

	// mu guards closed. enqueue holds the read lock across its
	// check-then-send, so once Close flips closed under the write lock no
	// request can slip into the queue behind the flush loop's final
	// drain — every accepted request is answered.
	mu     sync.RWMutex
	closed bool

	scratch []*request       // batch assembly buffer, owned by the flush loop
	xs      []*tensor.Tensor // extracted-tensor scratch, reused across batches
	idx     []int            // xs→batch index scratch, reused across batches
	results []result         // per-request outcomes, held until the batch trace is filed
}

func newBatcher(srv *Server, queueSize, maxBatch int, maxWait time.Duration, pool *parallel.Pool) *batcher {
	return &batcher{
		srv:      srv,
		queue:    make(chan *request, queueSize),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		pool:     pool,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		scratch:  make([]*request, 0, maxBatch),
		xs:       make([]*tensor.Tensor, 0, maxBatch),
		idx:      make([]int, 0, maxBatch),
		results:  make([]result, maxBatch),
	}
}

// start launches the flush loop.
func (b *batcher) start() {
	go b.loop() //hsd:allow goroutinelint service loop, not batch fan-out; joined by Close, which closes stop and blocks on done
}

// enqueue hands a request to the flush loop, failing fast with
// ErrShuttingDown after Close and ErrQueueFull when the bounded queue is
// at capacity.
func (b *batcher) enqueue(r *request) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrShuttingDown
	}
	select {
	case b.queue <- r:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops intake, waits for the flush loop to drain every accepted
// request, and returns. Idempotent; concurrent calls all block until the
// drain finishes.
func (b *batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.stop)
	}
	<-b.done
}

// loop is the flush loop: one long-lived goroutine that assembles and runs
// micro-batches until Close.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case r := <-b.queue:
			b.run(b.fill(r))
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// fill assembles a batch around its first request: it keeps pulling until
// the batch holds maxBatch clips or maxWait has elapsed (or shutdown
// begins — the partial batch still runs, and the outer loop drains the
// rest).
func (b *batcher) fill(first *request) []*request {
	batch := append(b.scratch[:0], first)
	if b.maxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.stop:
			return batch
		}
	}
	return batch
}

// drain answers everything still queued at shutdown, in maxBatch-sized
// bites with no deadline waits.
func (b *batcher) drain() {
	for {
		batch := b.scratch[:0]
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		if len(batch) == 0 {
			return
		}
		b.run(batch)
	}
}

// extraction is one clip's stage-1 outcome; errors are per-item so one
// malformed clip cannot fail its batch mates.
type extraction struct {
	x   *tensor.Tensor
	err error
}

// run executes one micro-batch: parallel feature extraction, batched
// inference, cache fills, then the end of the batch stage, and only then
// the replies. A client that reads /debug/trace right after its reply
// therefore finds its batch's trace already filed.
//
//hsd:hotpath
func (b *batcher) run(batch []*request) {
	met := b.srv.metrics
	bst := b.srv.tracer.Stage(stageBatch, met.batchSum)
	bsp, btr := bst.Span(), bst.Trace()
	m := b.srv.model.Load() //hsd:allow hotlint one atomic pointer read per micro-batch pins the model across the batch
	if m == nil {
		btr.SetStatus(503)
		btr.SetError("no model loaded")
		for _, r := range batch {
			r.queue.Abort()
		}
		bst.Abort()
		for _, r := range batch {
			r.resp <- result{err: ErrNoModel} //hsd:allow hotlint reply into the request's cap-1 buffered channel; never blocks
		}
		return
	}
	n := len(batch)
	met.batch(n)
	bsp.SetInt("size", int64(n))
	bsp.SetInt("model_generation", int64(m.generation))
	for _, r := range batch {
		r.queue.End()
		r.queue.Span().SetStr("batch_id", btr.ID())
	}
	// Batch linkage, the reverse direction: the batch trace names the
	// request traces that rode in it. Guarded by a nil check because the
	// indexed keys are built with strconv — never on the dark path.
	if btr != nil {
		for i, r := range batch {
			if rtr := r.queue.Trace(); rtr != nil {
				bsp.SetStr("member_"+strconv.Itoa(i), rtr.ID())
			}
		}
	}

	ex := bsp.Stage(stageExtract, met.extractSum)
	exts, _ := parallel.Map(b.pool, n, func(_, i int) (extraction, error) {
		x, err := feature.ExtractTensorFromRows(batch[i].im, b.srv.cfg.Feature)
		return extraction{x: x, err: err}, nil
	})
	ex.End()

	xs := b.xs[:0]
	idx := b.idx[:0]
	results := b.results[:n]
	for i, e := range exts {
		if e.err != nil {
			results[i] = result{err: e.err}
			continue
		}
		xs = append(xs, e.x)
		idx = append(idx, i)
	}
	if len(xs) > 0 {
		in := bsp.Stage(stageInfer, met.inferSum)
		probs, err := m.ev.PredictProbs(xs)
		_ = in.Done(err) // err is answered per request below
		for j, i := range idx {
			if err != nil {
				results[i] = result{err: err}
				continue
			}
			b.srv.cache.add(batch[i].key, probs[j])
			results[i] = result{prob: probs[j]}
		}
	}
	bst.End()
	for i, r := range batch {
		r.resp <- results[i] //hsd:allow hotlint reply into the request's cap-1 buffered channel; never blocks
	}
}
