// Package serve is the online half of the system: a long-running HTTP
// inference service answering "is this clip a hotspot?" queries with the
// paper's pipeline (feature tensor §3 → Table 1 CNN §4.1).
//
// Per-clip inference is a pure function, so the serving layer wins its
// throughput at the batching layer: concurrent single-clip requests are
// coalesced by a micro-batcher (flush on max batch size or max wait
// deadline) and run through the shared worker pool as one extraction
// fan-out plus one batched forward pass — with responses bit-identical to
// one-at-a-time serial inference, because batching only regroups pure
// per-item work (see batcher.go and the parity test). A bounded LRU keyed
// by a hash of the rasterized clip lets repeated clips skip the DCT and
// the CNN entirely, and a bounded queue turns overload into explicit 429
// backpressure instead of latency collapse.
//
// Endpoints: POST /v1/predict and /v1/predict/batch (clips as JSON
// rectangles or a raw rasterized bitmap), GET /healthz, GET /readyz,
// GET /metrics (plain-text counters: requests, cache hit rate, batch-size
// histogram, per-stage latency), and POST /admin/reload, which atomically
// swaps in a new checkpoint without dropping a request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/train"
)

// Config parameterizes the inference service.
type Config struct {
	// Feature is the feature tensor configuration; it must match the
	// served network's input shape (checked at model load).
	Feature feature.TensorConfig
	// CoreSide is the default clip-core side in nanometres; a request
	// that does not name an explicit core is scored on a CoreSide square
	// centered in its frame.
	CoreSide int
	// MaxBatch is the micro-batcher's flush size.
	MaxBatch int
	// MaxWait is how long a batch waits for company before flushing.
	MaxWait time.Duration
	// QueueSize bounds the pending-request queue; a full queue fails
	// fast with HTTP 429.
	QueueSize int
	// CacheSize bounds the clip-dedup LRU (entries); 0 disables it.
	CacheSize int
	// Workers bounds the goroutines for extraction and inference
	// (0 = parallel.Default()). Pure throughput knob.
	Workers int
	// Shift is the decision-boundary shift λ of Equation (11), applied
	// to the hotspot verdict (probabilities are reported unshifted).
	Shift float64
	// RequestTimeout bounds how long a request waits for its prediction.
	RequestTimeout time.Duration
	// Trace, when non-nil, lights request tracing: every predict request
	// records a span tree into an in-memory flight recorder (see
	// internal/obs/trace) and GET /debug/trace is mounted by DebugHandler.
	// Nil (the default) is dark: zero allocations on the serving hot path
	// and no trace endpoint. Tracing is observation-only — served
	// probabilities are bit-identical lit or dark (parity-tested).
	Trace *trace.Config
}

// DefaultConfig serves the paper-shaped model: 1200 nm cores into
// 12×12×32 tensors, 32-clip/2ms micro-batches, a 4096-clip cache.
func DefaultConfig() Config {
	return Config{
		Feature:        feature.DefaultTensorConfig(),
		CoreSide:       1200,
		MaxBatch:       32,
		MaxWait:        2 * time.Millisecond,
		QueueSize:      256,
		CacheSize:      4096,
		RequestTimeout: 5 * time.Second,
	}
}

// Validate cross-checks the configuration.
func (c Config) Validate() error {
	if err := c.Feature.Validate(); err != nil {
		return err
	}
	if err := c.Feature.ValidateCore(c.CoreSide); err != nil {
		return fmt.Errorf("serve: default core side %d nm: %w", c.CoreSide, err)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d", c.MaxBatch)
	}
	if c.MaxBatch > 1 && c.MaxWait <= 0 {
		return fmt.Errorf("serve: MaxWait must be positive when batching (MaxBatch=%d)", c.MaxBatch)
	}
	if c.QueueSize < 1 {
		return fmt.Errorf("serve: QueueSize must be >= 1, got %d", c.QueueSize)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("serve: CacheSize must be >= 0, got %d", c.CacheSize)
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("serve: RequestTimeout must be positive, got %v", c.RequestTimeout)
	}
	return nil
}

// Server is the inference service. Build one with New, install a model
// with LoadNetwork or LoadCheckpoint, and mount it anywhere an
// http.Handler goes. Close drains in-flight batches; requests arriving
// afterwards get 503s.
type Server struct {
	cfg     Config
	model   atomic.Pointer[model]
	cache   *clipCache
	images  imagePool
	metrics *metrics
	batcher *batcher
	tracer  *trace.Tracer // nil when tracing is dark
	mux     *http.ServeMux
	closed  atomic.Bool

	// reloadMu serializes model swaps; lastPath remembers the most
	// recent checkpoint path for path-less /admin/reload requests.
	reloadMu sync.Mutex
	lastPath string
}

// New validates the configuration and starts the (model-less) service;
// readyz stays 503 until a model is loaded.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: newClipCache(cfg.CacheSize),
	}
	if cfg.Trace != nil {
		s.tracer = trace.New(*cfg.Trace)
	}
	s.metrics = newMetrics(s.cache.len)
	s.batcher = newBatcher(s, cfg.QueueSize, cfg.MaxBatch, cfg.MaxWait, parallel.New(cfg.Workers))
	s.batcher.start()
	mux := http.NewServeMux()
	mux.Handle("POST /v1/predict", s.instrument("predict", s.handlePredict))
	mux.Handle("POST /v1/predict/batch", s.instrument("predict_batch", s.handlePredictBatch))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("POST /admin/reload", s.instrument("reload", s.handleReload))
	s.mux = mux
	return s, nil
}

// ServeHTTP dispatches to the service's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting predictions and drains every in-flight and queued
// request. Safe to call more than once; HTTP shutdown (http.Server
// .Shutdown) should run first so handlers are not mid-enqueue.
func (s *Server) Close() {
	s.closed.Store(true)
	s.batcher.Close()
}

// Metrics returns a point-in-time snapshot of the service counters.
func (s *Server) Metrics() MetricsSnapshot { return s.metrics.snapshot() }

// Registry returns the server's metrics registry (each server owns a
// private one), for debug endpoints and programmatic scrapes.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Tracer returns the server's request tracer, or nil when tracing is
// dark (Config.Trace unset).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// CenteredCore returns the side×side core window centered in frame (the
// default scoring window when a request names no explicit core).
func CenteredCore(frame geom.Rect, side int) geom.Rect {
	x0 := frame.X0 + (frame.W()-side)/2
	y0 := frame.Y0 + (frame.H()-side)/2
	return geom.R(x0, y0, x0+side, y0+side)
}

// --- wire types ---

// RectJSON is an axis-aligned rectangle in nanometres (x0,y0 inclusive,
// x1,y1 exclusive), the wire form of geom.Rect.
type RectJSON struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
}

func (r RectJSON) rect() geom.Rect { return geom.R(r.X0, r.Y0, r.X1, r.Y1) }

// BitmapJSON is a pre-rasterized core window: a row-major W×H grid of
// pixel coverage values in [0, 1] at the server's configured resolution.
// The side must be square and divide evenly into the configured DCT
// blocks.
type BitmapJSON struct {
	W   int       `json:"w"`
	H   int       `json:"h"`
	Pix []float64 `json:"pix"`
}

// ClipRequest is one clip to score: either drawn geometry (Frame plus
// Rects, with an optional explicit Core window) or a raw Bitmap of the
// core.
type ClipRequest struct {
	Frame  *RectJSON   `json:"frame,omitempty"`
	Rects  []RectJSON  `json:"rects,omitempty"`
	Core   *RectJSON   `json:"core,omitempty"`
	Bitmap *BitmapJSON `json:"bitmap,omitempty"`
}

// PredictResponse is one clip's verdict.
type PredictResponse struct {
	// Prob is the hotspot probability y(1).
	Prob float64 `json:"prob"`
	// Hotspot applies the (shifted) decision rule to Prob.
	Hotspot bool `json:"hotspot"`
	// Cached reports whether the clip-dedup cache answered.
	Cached bool `json:"cached"`
}

// BatchRequest scores several clips in one HTTP round trip.
type BatchRequest struct {
	Clips []ClipRequest `json:"clips"`
}

// BatchResponse carries one result per request clip, in order.
type BatchResponse struct {
	Results []PredictResponse `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; a 300×300 float64 bitmap in JSON is
// well under 8 MB.
const maxBodyBytes = 8 << 20

// maxImageSide bounds the side, in pixels, of any image a request makes
// the server allocate. 2048² pixels is the largest bitmap a maxBodyBytes
// body can carry (each JSON pixel takes at least two bytes), and a frame
// is held to the same bound before it is rasterized.
const maxImageSide = 2048

// maxBatchClips bounds one /v1/predict/batch request.
const maxBatchClips = 1024

// maxRequestRects bounds the rectangles one request may draw, summed over
// its clips, so a body inside maxBodyBytes cannot pin a core rasterizing
// the same frame hundreds of thousands of times. The generated suites'
// largest clip has 32 rectangles.
const maxRequestRects = 65536

// checkRects rejects a request drawing more than maxRequestRects
// rectangles.
func checkRects(n int) error {
	if n > maxRequestRects {
		return fmt.Errorf("%d rectangles exceeds the %d-rectangle request limit", n, maxRequestRects)
	}
	return nil
}

// imagePool recycles core images, each kept as its distinct rows, between
// requests. The rule: the handler that drew an image puts it back on a
// cache hit, on any failure before enqueue, and after that request's
// result has arrived — the batcher never reads an image after it answers.
// A request abandoned on timeout leaves its image to the GC, because the
// batcher may still be extracting from it. Every call is made on handler
// goroutines.
type imagePool struct{ p sync.Pool }

// get returns a recycled image, or a new empty one when there is none.
func (ip *imagePool) get() *raster.Rows {
	if im, ok := ip.p.Get().(*raster.Rows); ok {
		return im
	}
	return new(raster.Rows)
}

// put recycles images; nil ones are ignored.
func (ip *imagePool) put(ims ...*raster.Rows) {
	for _, im := range ims {
		if im != nil {
			ip.p.Put(im)
		}
	}
}

// --- request pipeline ---

// coreImage turns a request clip into the rasterized core window the
// pipeline operates on, kept as its distinct rows (raster.Rows) for the
// cache key and the block DCT to read. It mirrors feature.ExtractTensor's
// geometry exactly (the core window of the clip's frame raster) so served
// predictions are bit-identical to offline ones. A geometry core is drawn
// by bands (feature.RasterizeCore); a bitmap is packed row by row as each
// row is validated. A clip's core is always the served one,
// Config.CoreSide nm (CoreSide/ResNM px) a side: the network only ever saw
// that block size, and it bounds each clip to one served core image. Image
// sides are checked before anything is multiplied or allocated. The image
// comes from the server's pool; the caller owns it (see imagePool).
func (s *Server) coreImage(cr ClipRequest) (*raster.Rows, error) {
	cfg := s.cfg.Feature
	if cr.Bitmap != nil {
		bm := cr.Bitmap
		if cr.Frame != nil || len(cr.Rects) > 0 || cr.Core != nil {
			return nil, fmt.Errorf("clip has both bitmap and geometry; send one")
		}
		if bm.W < 1 || bm.W > maxImageSide || bm.H < 1 || bm.H > maxImageSide {
			return nil, fmt.Errorf("bitmap %dx%d px: each side must be 1..%d px", bm.W, bm.H, maxImageSide)
		}
		if side := s.cfg.CoreSide / cfg.ResNM; bm.W != side || bm.H != side {
			return nil, fmt.Errorf("bitmap %dx%d px is not the served %dx%d px core", bm.W, bm.H, side, side)
		}
		if len(bm.Pix) != bm.W*bm.H {
			return nil, fmt.Errorf("bitmap has %d pixels, want %d", len(bm.Pix), bm.W*bm.H)
		}
		im := s.images.get()
		im.Reset(bm.W, bm.H)
		for y := 0; y < bm.H; y++ {
			row := bm.Pix[y*bm.W : y*bm.W+bm.W]
			for x, v := range row {
				// The negated range test also rejects NaN. A subnormal
				// pixel would send every product it feeds down the CPU's
				// slow path, and no raster's coverage fraction is one.
				if !(v >= 0 && v <= 1) {
					s.images.put(im)
					return nil, fmt.Errorf("bitmap pixel %d is %v, outside [0, 1]", y*bm.W+x, v)
				}
				if v != 0 && v < 0x1p-1022 {
					s.images.put(im)
					return nil, fmt.Errorf("bitmap pixel %d is %v, subnormal", y*bm.W+x, v)
				}
			}
			im.Append(row)
		}
		return im, nil
	}
	if cr.Frame == nil {
		return nil, fmt.Errorf("clip needs a frame (or a bitmap)")
	}
	frame := cr.Frame.rect()
	if frame.Empty() {
		return nil, fmt.Errorf("frame %+v is empty", *cr.Frame)
	}
	// A side past int range wraps negative in Rect.W/H; the lower bound
	// rejects it.
	if maxNM := maxImageSide * cfg.ResNM; frame.W() < 1 || frame.W() > maxNM || frame.H() < 1 || frame.H() > maxNM {
		return nil, fmt.Errorf("frame %+v at %d nm/px: each side must be 1..%d px (%d nm)", *cr.Frame, cfg.ResNM, maxImageSide, maxNM)
	}
	rects := make([]geom.Rect, len(cr.Rects))
	for i, r := range cr.Rects {
		rects[i] = r.rect()
	}
	core := CenteredCore(frame, s.cfg.CoreSide)
	if cr.Core != nil {
		core = cr.Core.rect()
		if core.W() != s.cfg.CoreSide || core.H() != s.cfg.CoreSide {
			return nil, fmt.Errorf("core %+v is %dx%d nm, not the served %dx%d nm core",
				*cr.Core, core.W(), core.H(), s.cfg.CoreSide, s.cfg.CoreSide)
		}
	}
	// A side that wraps past int range can match CoreSide on an empty
	// rectangle, which ContainsRect accepts.
	if core.Empty() || !frame.ContainsRect(core) {
		return nil, fmt.Errorf("core %+v outside clip frame %+v", core, frame)
	}
	clip := geom.NewClip(frame, rects)
	im := s.images.get()
	if err := feature.RasterizeCore(im, clip, core, cfg); err != nil {
		s.images.put(im)
		return nil, err
	}
	return im, nil
}

// predictOne resolves one hashed core image to a verdict: cache lookup,
// then enqueue and wait for the micro-batcher. It takes ownership of im
// and returns it to the pool unless the wait is abandoned. parent, when
// tracing is lit, is the span the request's queue stage is recorded under
// (the trace root for single predicts, the per-clip span for batch
// requests); nil spans no-op.
func (s *Server) predictOne(ctx context.Context, im *raster.Rows, key uint64, parent *trace.Span) (PredictResponse, error) {
	if p, ok := s.cache.get(key); ok {
		s.images.put(im)
		s.metrics.cache(true)
		parent.SetBool("cache_hit", true)
		return PredictResponse{Prob: p, Hotspot: train.Decide(p, s.cfg.Shift), Cached: true}, nil
	}
	s.metrics.cache(false)
	parent.SetBool("cache_hit", false)
	req := &request{im: im, key: key, resp: make(chan result, 1), queue: parent.Stage(stageQueue, s.metrics.queueSum)}
	if err := s.batcher.enqueue(req); err != nil {
		req.queue.Abort() // never reached the queue
		s.images.put(im)
		return PredictResponse{}, err
	}
	select {
	case res := <-req.resp:
		s.images.put(im)
		if res.err != nil {
			return PredictResponse{}, res.err
		}
		return PredictResponse{Prob: res.prob, Hotspot: train.Decide(res.prob, s.cfg.Shift)}, nil
	case <-ctx.Done():
		return PredictResponse{}, ctx.Err() // im stays with the queued request
	}
}

// statusOf maps pipeline errors to HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrNoModel):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// --- handlers ---

// fail answers a failed predict request. Its trace records the outcome
// and is filed, kept as an error; the request stage is aborted, so the
// request summary counts answered requests only.
func fail(w http.ResponseWriter, st trace.Stage, status int, msg string) {
	tr := st.Trace()
	tr.SetStatus(status)
	tr.SetError(msg)
	st.Abort()
	writeJSON(w, status, errorResponse{Error: msg})
}

// handlePredict scores one clip. Its trace is predict → decode, raster,
// hash, and queue on a cache miss.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	st := s.tracer.Stage("predict", s.metrics.requestSum)
	root := st.Span()
	dec := root.Stage("decode", nil)
	var cr ClipRequest
	err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&cr)
	dec.End()
	if err != nil {
		fail(w, st, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := checkRects(len(cr.Rects)); err != nil {
		fail(w, st, http.StatusBadRequest, err.Error())
		return
	}
	ras := root.Stage("raster", nil)
	im, err := s.coreImage(cr)
	ras.End()
	if err != nil {
		fail(w, st, http.StatusBadRequest, err.Error())
		return
	}
	hs := root.Stage("hash", nil)
	key := hashImage(im)
	hs.End()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.predictOne(ctx, im, key, root)
	if err != nil {
		fail(w, st, statusOf(err), err.Error())
		return
	}
	st.Trace().SetStatus(http.StatusOK)
	st.End()
	writeJSON(w, http.StatusOK, resp)
}

// handlePredictBatch scores several clips. Its trace is predict_batch →
// decode, raster, hash (all clips), and one clip → queue pair per cache
// miss.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	st := s.tracer.Stage("predict_batch", s.metrics.requestSum)
	root := st.Span()
	dec := root.Stage("decode", nil)
	var br BatchRequest
	err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&br)
	dec.End()
	if err != nil {
		fail(w, st, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(br.Clips) == 0 {
		fail(w, st, http.StatusBadRequest, "no clips")
		return
	}
	if len(br.Clips) > maxBatchClips {
		fail(w, st, http.StatusBadRequest, fmt.Sprintf("%d clips exceeds the %d-clip limit", len(br.Clips), maxBatchClips))
		return
	}
	rects := 0
	for _, cr := range br.Clips {
		rects += len(cr.Rects)
	}
	if err := checkRects(rects); err != nil {
		fail(w, st, http.StatusBadRequest, err.Error())
		return
	}
	root.SetInt("clips", int64(len(br.Clips)))
	ras := root.Stage("raster", nil)
	ims := make([]*raster.Rows, len(br.Clips))
	for i, cr := range br.Clips {
		im, err := s.coreImage(cr)
		if err != nil {
			ras.End()
			s.images.put(ims[:i]...)
			fail(w, st, http.StatusBadRequest, fmt.Sprintf("clip %d: %v", i, err))
			return
		}
		ims[i] = im
	}
	ras.End()
	hs := root.Stage("hash", nil)
	keys := make([]uint64, len(ims))
	for i, im := range ims {
		keys[i] = hashImage(im)
	}
	hs.End()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Resolve cache hits and enqueue the misses before waiting on any of
	// them, so one batch request can fill whole micro-batches. Images
	// follow imagePool's rule: a hit's goes back at once, a queued one's
	// when its result arrives, and those still queued when the request
	// gives up stay with their requests.
	results := make([]PredictResponse, len(ims))
	type pending struct {
		i    int
		req  *request
		clip trace.Stage
	}
	var waits []pending
	hits := 0
	for i, im := range ims {
		if p, ok := s.cache.get(keys[i]); ok {
			s.images.put(im)
			s.metrics.cache(true)
			hits++
			results[i] = PredictResponse{Prob: p, Hotspot: train.Decide(p, s.cfg.Shift), Cached: true}
			continue
		}
		s.metrics.cache(false)
		clip := root.Stage("clip", nil)
		csp := clip.Span()
		csp.SetInt("index", int64(i))
		csp.SetBool("cache_hit", false)
		req := &request{im: im, key: keys[i], resp: make(chan result, 1), queue: csp.Stage(stageQueue, s.metrics.queueSum)}
		if err := s.batcher.enqueue(req); err != nil {
			req.queue.Abort() // never reached the queue
			clip.Abort()
			s.images.put(ims[i:]...)
			fail(w, st, statusOf(err), fmt.Sprintf("clip %d: %v", i, err))
			return
		}
		waits = append(waits, pending{i: i, req: req, clip: clip})
	}
	root.SetInt("cache_hits", int64(hits))
	for _, p := range waits {
		select {
		case res := <-p.req.resp:
			s.images.put(p.req.im)
			if p.clip.Done(res.err) != nil {
				fail(w, st, statusOf(res.err), fmt.Sprintf("clip %d: %v", p.i, res.err))
				return
			}
			results[p.i] = PredictResponse{Prob: res.prob, Hotspot: train.Decide(res.prob, s.cfg.Shift)}
		case <-ctx.Done():
			p.clip.Abort()
			fail(w, st, statusOf(ctx.Err()), ctx.Err().Error())
			return
		}
	}
	st.Trace().SetStatus(http.StatusOK)
	st.End()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.closed.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "shutting down\n")
	case s.model.Load() == nil:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "no model loaded\n")
	default:
		_, _ = io.WriteString(w, "ready\n")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.metrics.reg.WriteText(w)
}

// reloadRequest is the /admin/reload body; an empty path re-reads the
// checkpoint the server last loaded from disk.
type reloadRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var rr reloadRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&rr); err != nil && !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	path := rr.Path
	if path == "" {
		s.reloadMu.Lock()
		path = s.lastPath
		s.reloadMu.Unlock()
	}
	if path == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no checkpoint path: none given and none loaded before"})
		return
	}
	if err := s.LoadCheckpoint(path); err != nil {
		// The old model keeps serving; reload is all-or-nothing.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	info, _ := s.Model()
	writeJSON(w, http.StatusOK, info)
}

// --- plumbing ---

// statusRecorder captures the handler's status code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint request counting.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.metrics.request(endpoint, rec.status)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
}
