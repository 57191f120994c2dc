package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/raster"
	"hotspot/internal/serve"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// conns is the load generator's connection count: one per core of the
// two-core reference machine, so the generator never puts more requests
// in flight than there are cores.
const conns = 2

// serveWorkload is serve_bulk: an in-process serve.Server driven over
// loopback HTTP by a closed loop of 32-clip batch predicts, a quarter of
// whose clips come from a hot set the server's cache answers.
type serveWorkload struct {
	o *options

	net       *nn.Network // the served weights, for the offline reference
	workDir   string
	modelPath string
	warm      []byte      // set-up's first request
	gateClips []geom.Clip // unique clips only the gate sends

	// Requests of bulkClips clips; member j of request r is hot clip
	// -1-members[r][j] when negative, else unique clip members[r][j].
	hot     []geom.Clip
	uniq    []geom.Clip
	reqs    [][]byte
	members [][]int
	hotRef  []float64 // each hot clip's first, uncached answer

	next    int      // the request the next phase starts with
	inputs  []int    // traced phase: the request index of each op
	answers sync.Map // unique clip index -> its last served probability

	srv      *serve.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	url      string
	clients  [conns]*http.Client
	snapshot serve.MetricsSnapshot
}

func (w *serveWorkload) generate() error {
	o, sz := w.o, w.o.size
	cfg := nn.DefaultPaperNetConfig()
	net, err := nn.NewPaperNet(cfg)
	if err != nil {
		return err
	}
	w.net = net
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	if w.workDir, err = os.MkdirTemp(o.workDir, "serve-"); err != nil {
		return err
	}
	w.modelPath = filepath.Join(w.workDir, "model.hsdnet")
	f, err := os.Create(w.modelPath)
	if err != nil {
		return err
	}
	if err := net.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if w.warm, err = encodeOne(genClip(o.seed, streamClip, -1)); err != nil {
		return err
	}
	w.gateClips = make([]geom.Clip, sz.gateClips)
	for i := range w.gateClips {
		w.gateClips[i] = genClip(o.seed, streamClip, -2-i)
	}
	w.hot = make([]geom.Clip, sz.hotSet)
	for i := range w.hot {
		w.hot[i] = genClip(o.seed, streamMix, -1-i)
	}
	// The closed loop cycles through the pool; its unique clips outnumber
	// the server's 4096-entry cache, so a reused request still misses.
	w.reqs, w.members = make([][]byte, sz.bulkReqs), make([][]int, sz.bulkReqs)
	mix := rngFor(o.seed, streamMix, 0)
	for r := range w.reqs {
		cs := make([]geom.Clip, sz.bulkClips)
		w.members[r] = make([]int, sz.bulkClips)
		for j := range cs {
			if mix.Float64() < sz.hotShare {
				h := mix.Intn(len(w.hot))
				cs[j], w.members[r][j] = w.hot[h], -1-h
				continue
			}
			u := len(w.uniq)
			w.uniq = append(w.uniq, genClip(o.seed, streamClip, u))
			cs[j], w.members[r][j] = w.uniq[u], u
		}
		if w.reqs[r], err = encodeBatch(cs); err != nil {
			return err
		}
	}
	return nil
}

// setup times fresh servers from nothing to the first 200: serve.New,
// checkpoint load, listener, first predict. The last server stays up.
func (w *serveWorkload) setup() ([]time.Duration, error) {
	var ds []time.Duration
	for rep := 0; rep < w.o.size.setupReps; rep++ {
		if err := w.stop(); err != nil {
			return nil, err
		}
		runtime.GC() // the previous server's garbage is not this set-up's
		start := time.Now()
		if err := w.start(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

func (w *serveWorkload) start() error {
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		return err
	}
	if err := srv.LoadCheckpoint(w.modelPath); err != nil {
		srv.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv, w.hs, w.served = srv, &http.Server{Handler: srv}, make(chan struct{})
	w.url = "http://" + ln.Addr().String()
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}(w.hs, w.served)
	for i := range w.clients {
		w.clients[i] = &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	var pr serve.PredictResponse
	return w.post(0, "/v1/predict", w.warm, &pr)
}

// stop shuts the running server down, if any, and waits for it.
func (w *serveWorkload) stop() error {
	if w.srv == nil {
		return nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Close()
	w.srv = nil
	return err
}

func (w *serveWorkload) close() {
	_ = w.stop()
	if w.workDir != "" {
		os.RemoveAll(w.workDir)
	}
}

// post sends one request on connection c and decodes a 200 answer.
func (w *serveWorkload) post(c int, path string, body []byte, out any) error {
	resp, err := w.clients[c].Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// reference is the offline answer for a clip: feature.ExtractTensor and
// the layered train.PredictProb on the served weights.
func (w *serveWorkload) reference(c geom.Clip) (float64, error) {
	x, err := feature.ExtractTensor(c, coreRect(), feature.DefaultTensorConfig())
	if err != nil {
		return 0, err
	}
	return train.PredictProb(w.net, x)
}

// check compares one served answer with the offline reference bit for bit.
func (w *serveWorkload) check(what string, c geom.Clip, got float64) error {
	want, err := w.reference(c)
	if err != nil {
		return err
	}
	if w.o.tamper(math.Float64bits(got)) != math.Float64bits(want) {
		return gateErr("%s: served %v, offline %v", what, got, want)
	}
	return nil
}

// gate runs before anything is timed. It sends the hot set, then the hot
// set again with the gate clips: every uncached answer must equal the
// offline reference, and every repeat must come from the cache and equal
// the clip's first answer.
func (w *serveWorkload) gate() (uint64, error) {
	h := fnv.New64a()
	note := func(p float64, cached bool) {
		hashUint64(h, math.Float64bits(p))
		if cached {
			hashUint64(h, 1)
		}
	}
	w.hotRef = make([]float64, len(w.hot))
	send := func(cs []geom.Clip) ([]serve.PredictResponse, error) {
		body, err := encodeBatch(cs)
		if err != nil {
			return nil, err
		}
		var br serve.BatchResponse
		if err := w.post(0, "/v1/predict/batch", body, &br); err != nil {
			return nil, gateErr("gate batch: %v", err)
		}
		if len(br.Results) != len(cs) {
			return nil, gateErr("gate batch: %d results for %d clips", len(br.Results), len(cs))
		}
		for _, r := range br.Results {
			note(r.Prob, r.Cached)
		}
		return br.Results, nil
	}
	for lo := 0; lo < len(w.hot); lo += w.o.size.bulkClips {
		hi := min(lo+w.o.size.bulkClips, len(w.hot))
		res, err := send(w.hot[lo:hi])
		if err != nil {
			return 0, err
		}
		for i, r := range res {
			if err := w.check(fmt.Sprintf("hot clip %d", lo+i), w.hot[lo+i], r.Prob); err != nil {
				return 0, err
			}
			w.hotRef[lo+i] = r.Prob
		}
	}
	res, err := send(append(append([]geom.Clip(nil), w.hot...), w.gateClips...))
	if err != nil {
		return 0, err
	}
	for i, r := range res {
		if i < len(w.hot) {
			if !r.Cached || math.Float64bits(r.Prob) != math.Float64bits(w.hotRef[i]) {
				return 0, gateErr("hot clip %d repeat: cached=%v prob %v, first answer %v", i, r.Cached, r.Prob, w.hotRef[i])
			}
			continue
		}
		if err := w.check(fmt.Sprintf("gate clip %d", i-len(w.hot)), w.gateClips[i-len(w.hot)], r.Prob); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// served is one op's outcome as a connection saw it.
type served struct {
	rec   opRecord
	input int
}

func (w *serveWorkload) phase(ph *phase) error {
	if ph.traced {
		w.snapshot = w.srv.Metrics()
	}
	out := w.closedLoop(ph)
	sort.Slice(out, func(i, j int) bool { return out[i].rec.start.Before(out[j].rec.start) })
	for _, s := range out {
		ph.add(s.rec, map[string]float64{"items": float64(s.rec.items)})
		if ph.traced {
			w.inputs = append(w.inputs, s.input)
		}
	}
	if ph.traced {
		now := w.srv.Metrics()
		batches, clips := 0.0, 0.0
		for size, n := range now.BatchSizes {
			d := float64(n - w.snapshot.BatchSizes[size])
			batches += d
			clips += d * float64(size)
		}
		ph.rec.add(spanServeMetrics, -1, 0, ph.deadline, ph.deadline, map[string]float64{
			"batches": batches, "batched_clips": clips,
			"cache_hits":   float64(now.CacheHits - w.snapshot.CacheHits),
			"cache_misses": float64(now.CacheMisses - w.snapshot.CacheMisses),
		})
	}
	return nil
}

// closedLoop keeps one batch request in flight per connection until the
// deadline. Hot-clip answers must equal their gate answers bit for bit.
func (w *serveWorkload) closedLoop(ph *phase) []served {
	var done atomic.Int64
	outs := make([][]served, conns)
	var wg sync.WaitGroup
	base := w.next
	var cursor atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := time.Now()
			for done.Load() < int64(ph.minOps) || time.Now().Before(ph.deadline) {
				r := (base + int(cursor.Add(1)) - 1) % len(w.reqs)
				sent := time.Now()
				var br serve.BatchResponse
				err := w.post(c, "/v1/predict/batch", w.reqs[r], &br)
				rec := opRecord{start: sent, end: time.Now(), due: last, issued: sent, items: len(w.members[r])}
				switch {
				case err != nil:
					rec.failed = true
				case len(br.Results) != len(w.members[r]):
					rec.failed, rec.mismatch = true, true
				default:
					for j, res := range br.Results {
						m := w.members[r][j]
						if m < 0 && math.Float64bits(res.Prob) != math.Float64bits(w.hotRef[-1-m]) ||
							!(res.Prob >= 0 && res.Prob <= 1) {
							rec.failed, rec.mismatch = true, true
						}
						if m >= 0 {
							w.answers.Store(m, res.Prob)
						}
					}
				}
				outs[c] = append(outs[c], served{rec: rec, input: r})
				last = rec.end
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	w.next = base + int(cursor.Load())
	var out []served
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// replay re-runs up to replayOps traced ops' clips through rasterization,
// feature extraction and the fused evaluator under each op's span, then
// runs the clip-independent layer replays on those clips.
func (w *serveWorkload) replay(ph *phase) error {
	kit := &layerKit{rec: ph.rec, net: w.net, fcfg: feature.DefaultTensorConfig()}
	ev, err := train.NewEvaluator(w.net, 0)
	if err != nil {
		return err
	}
	var ims []*raster.Image
	var xs []*tensor.Tensor
	var tiles []geom.Clip
	// An op replays 32 clips, so a quarter as many ops are replayed.
	limit := max(1, w.o.size.replayOps/4)
	n := len(ph.ops)
	step := max(1, (n+limit-1)/limit)
	for op := 0; op < n; op += step {
		var cs []geom.Clip
		var miss []bool
		for _, m := range w.members[w.inputs[op]] {
			if m < 0 {
				cs, miss = append(cs, w.hot[-1-m]), append(miss, false)
			} else {
				cs, miss = append(cs, w.uniq[m]), append(miss, true)
			}
		}
		parent := ph.spans[op]
		var opXs []*tensor.Tensor
		for i, c := range cs {
			// Every clip is rasterized and hashed; only misses reach
			// feature extraction and inference.
			var im *raster.Image
			if err := kit.rec.call(spanCoreImage, op, parent, func() (err error) {
				im, err = feature.ExtractCoreImage(c, coreRect(), kit.fcfg)
				return err
			}); err != nil {
				return err
			}
			if !miss[i] {
				continue
			}
			var x *tensor.Tensor
			if err := kit.rec.call(spanTensor, op, parent, func() (err error) {
				x, err = feature.ExtractTensorFromImage(im, kit.fcfg)
				return err
			}); err != nil {
				return err
			}
			opXs = append(opXs, x)
			if len(xs) < w.o.size.layerInputs {
				ims, xs, tiles = append(ims, im), append(xs, x), append(tiles, c)
			}
		}
		if len(opXs) == 0 {
			continue
		}
		if err := ev.Prepare(opXs[0].Shape()); err != nil {
			return err
		}
		if err := kit.rec.call(spanPredictProbs, op, parent, func() error {
			_, err := ev.PredictProbs(opXs)
			return err
		}); err != nil {
			return err
		}
	}
	return kit.all(ims[:min(len(ims), 8)], xs, tiles[:min(len(tiles), 16)])
}

// finish re-checks a spread sample of the timed answers against the
// offline reference.
func (w *serveWorkload) finish() ([]time.Duration, error) {
	var keys []int
	w.answers.Range(func(k, _ any) bool {
		keys = append(keys, k.(int))
		return true
	})
	sort.Ints(keys)
	step := max(1, len(keys)/max(1, w.o.size.verifyClips))
	for i := 0; i < len(keys); i += step {
		v, _ := w.answers.Load(keys[i])
		if err := w.check(fmt.Sprintf("timed clip %d", keys[i]), w.uniq[keys[i]], v.(float64)); err != nil {
			return nil, err
		}
	}
	return nil, nil
}
