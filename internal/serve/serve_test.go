package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/serve"
	"hotspot/internal/train"
)

// testFrame is the clip window every test clip lives in.
var testFrame = geom.R(0, 0, 480, 480)

// testConfig is a reduced service for fast tests: 4-block/8-coefficient
// tensors over a 192 nm core into a narrow CNN.
func testConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Feature = feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
	cfg.CoreSide = 192
	cfg.RequestTimeout = 10 * time.Second
	return cfg
}

// testNet builds a small deterministic random-weight network matching
// testConfig; equal seeds give bit-equal weights.
func testNet(t testing.TB, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 8, SpatialSize: 4, Conv1Maps: 4, Conv2Maps: 4,
		FC1: 12, DropoutRate: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testClips generates n wire-track clips with varied pitch, width, phase
// and crossbars.
func testClips(n int, seed int64) []geom.Clip {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Clip, n)
	for i := range out {
		pitch := 48 + 16*rng.Intn(6)
		width := 24 + 8*rng.Intn(4)
		off := 8 * rng.Intn(6)
		var rects []geom.Rect
		for x := off; x+width <= 480; x += pitch {
			rects = append(rects, geom.R(x, 0, x+width, 480))
		}
		if rng.Intn(2) == 0 {
			y := 32 * rng.Intn(12)
			rects = append(rects, geom.R(0, y, 480, y+24))
		}
		out[i] = geom.NewClip(testFrame, rects)
	}
	return out
}

func clipRequest(c geom.Clip) serve.ClipRequest {
	cr := serve.ClipRequest{
		Frame: &serve.RectJSON{X0: c.Frame.X0, Y0: c.Frame.Y0, X1: c.Frame.X1, Y1: c.Frame.Y1},
	}
	for _, r := range c.Rects {
		cr.Rects = append(cr.Rects, serve.RectJSON{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1})
	}
	return cr
}

// serialProbs is the offline reference: feature.ExtractTensor +
// train.PredictProb per clip, one at a time, on the calling goroutine.
func serialProbs(t testing.TB, net *nn.Network, clips []geom.Clip, cfg serve.Config) []float64 {
	t.Helper()
	core := serve.CenteredCore(testFrame, cfg.CoreSide)
	out := make([]float64, len(clips))
	for i, c := range clips {
		x, err := feature.ExtractTensor(c, core, cfg.Feature)
		if err != nil {
			t.Fatal(err)
		}
		p, err := train.PredictProb(net, x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// newTestServer builds a ready server plus its httptest front end.
func newTestServer(t testing.TB, cfg serve.Config, netSeed int64) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadNetwork(testNet(t, netSeed), "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodePredict(t testing.TB, raw []byte) serve.PredictResponse {
	t.Helper()
	var pr serve.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("bad predict response %q: %v", raw, err)
	}
	return pr
}

// TestServerParityUnderLoad is the acceptance parity test: under 8
// concurrent clients, at every micro-batch size, the probabilities the
// server returns are bit-identical to serial one-at-a-time inference on
// the same clips. JSON carries float64 at full round-trip precision, so
// bit equality survives the wire.
func TestServerParityUnderLoad(t *testing.T) {
	const clients = 8
	clips := testClips(24, 11)
	refCfg := testConfig()
	want := serialProbs(t, testNet(t, 5), clips, refCfg)

	for _, maxBatch := range []int{1, 3, 8, 32} {
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxBatch = maxBatch
			_, ts := newTestServer(t, cfg, 5)
			var wg sync.WaitGroup
			got := make([][]float64, clients)
			errs := make([]error, clients)
			for cl := 0; cl < clients; cl++ {
				got[cl] = make([]float64, len(clips))
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					perm := rand.New(rand.NewSource(int64(100 + cl))).Perm(len(clips))
					for _, i := range perm {
						resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clips[i]))
						if resp.StatusCode != http.StatusOK {
							errs[cl] = fmt.Errorf("clip %d: status %d: %s", i, resp.StatusCode, raw)
							return
						}
						var pr serve.PredictResponse
						if err := json.Unmarshal(raw, &pr); err != nil {
							errs[cl] = err
							return
						}
						got[cl][i] = pr.Prob
					}
				}(cl)
			}
			wg.Wait()
			for cl, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", cl, err)
				}
			}
			for cl := 0; cl < clients; cl++ {
				for i := range clips {
					if math.Float64bits(got[cl][i]) != math.Float64bits(want[i]) {
						t.Fatalf("client %d clip %d: server %v != serial %v (maxBatch %d)",
							cl, i, got[cl][i], want[i], maxBatch)
					}
				}
			}
		})
	}
}

// TestBatchEndpointParity checks /v1/predict/batch against the serial
// reference and the order of results.
func TestBatchEndpointParity(t *testing.T) {
	clips := testClips(16, 23)
	cfg := testConfig()
	want := serialProbs(t, testNet(t, 5), clips, cfg)
	_, ts := newTestServer(t, cfg, 5)

	var br serve.BatchRequest
	for _, c := range clips {
		br.Clips = append(br.Clips, clipRequest(c))
	}
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict/batch", br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out serve.BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(clips) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(clips))
	}
	for i, r := range out.Results {
		if math.Float64bits(r.Prob) != math.Float64bits(want[i]) {
			t.Fatalf("clip %d: batch endpoint %v != serial %v", i, r.Prob, want[i])
		}
	}
}

// TestBitmapInputParity: a pre-rasterized core bitmap must score
// bit-identically to the geometry form of the same clip.
func TestBitmapInputParity(t *testing.T) {
	cfg := testConfig()
	clips := testClips(3, 31)
	_, ts := newTestServer(t, cfg, 5)
	core := serve.CenteredCore(testFrame, cfg.CoreSide)
	for i, c := range clips {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(c))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("geometry clip %d: status %d: %s", i, resp.StatusCode, raw)
		}
		geomPr := decodePredict(t, raw)

		// Build the same core window as a raw bitmap.
		im, err := feature.ExtractCoreImage(c, core, cfg.Feature)
		if err != nil {
			t.Fatal(err)
		}
		bm := serve.BitmapJSON{W: im.W, H: im.H, Pix: im.Pix}
		resp, raw = postJSON(t, ts.Client(), ts.URL+"/v1/predict", serve.ClipRequest{Bitmap: &bm})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bitmap clip %d: status %d: %s", i, resp.StatusCode, raw)
		}
		bmPr := decodePredict(t, raw)
		if math.Float64bits(bmPr.Prob) != math.Float64bits(geomPr.Prob) {
			t.Fatalf("clip %d: bitmap %v != geometry %v", i, bmPr.Prob, geomPr.Prob)
		}
	}
}

// TestCacheDedup: a repeated clip is served from the LRU (cached=true,
// identical bits), and the hit shows up in the metrics.
func TestCacheDedup(t *testing.T) {
	cfg := testConfig()
	srv, ts := newTestServer(t, cfg, 5)
	clip := clipRequest(testClips(1, 7)[0])

	_, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clip)
	first := decodePredict(t, raw)
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	_, raw = postJSON(t, ts.Client(), ts.URL+"/v1/predict", clip)
	second := decodePredict(t, raw)
	if !second.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if math.Float64bits(first.Prob) != math.Float64bits(second.Prob) {
		t.Fatalf("cache changed the answer: %v vs %v", first.Prob, second.Prob)
	}
	snap := srv.Metrics()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestCacheKeyIsThePixels: the cache key depends on the core's pixels
// alone. A bitmap of a geometry request's core hits the entry that request
// filled, with the same bits. The key hashes only the distinct rows and
// the row marks, so one flipped bit in a row that repeats the row above —
// +0 to −0, which compares equal under == — must still miss: the row is
// no longer a repeat, and its mark and pixels enter the key.
func TestCacheKeyIsThePixels(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	clip := testClips(1, 7)[0]
	_, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clip))
	first := decodePredict(t, raw)
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	im, err := feature.ExtractCoreImage(clip, serve.CenteredCore(testFrame, cfg.CoreSide), cfg.Feature)
	if err != nil {
		t.Fatal(err)
	}
	bitmap := func(pix []float64) serve.PredictResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict",
			serve.ClipRequest{Bitmap: &serve.BitmapJSON{W: im.W, H: im.H, Pix: pix}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bitmap: status %d: %s", resp.StatusCode, raw)
		}
		return decodePredict(t, raw)
	}
	same := bitmap(im.Pix)
	if !same.Cached || math.Float64bits(same.Prob) != math.Float64bits(first.Prob) {
		t.Fatalf("bitmap of the geometry core: cached=%v prob %v, want a hit with %v", same.Cached, same.Prob, first.Prob)
	}
	// A zero pixel in a row that repeats the row above.
	im.MarkRows()
	at := -1
	for i := im.W; i < len(im.Pix) && at < 0; i++ {
		if im.Repeats()[i/im.W] && math.Float64bits(im.Pix[i]) == 0 {
			at = i
		}
	}
	if at < 0 {
		t.Fatal("test clip has no zero pixel in a repeated row")
	}
	flipped := append([]float64(nil), im.Pix...)
	flipped[at] = math.Copysign(0, -1)
	if got := bitmap(flipped); got.Cached {
		t.Fatalf("pixel %d flipped to −0 in a repeated row hit the cache", at)
	}
}

// TestFlushBySize: with a long deadline, MaxBatch concurrent clients
// coalesce into one full micro-batch.
func TestFlushBySize(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 4
	cfg.MaxWait = 10 * time.Second // deadline flush would blow RequestTimeout
	cfg.CacheSize = 0
	cfg.RequestTimeout = 5 * time.Second
	srv, ts := newTestServer(t, cfg, 5)

	clips := testClips(4, 41)
	var wg sync.WaitGroup
	status := make([]int, len(clips))
	for i := range clips {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clips[i]))
			status[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, st := range status {
		if st != http.StatusOK {
			t.Fatalf("clip %d: status %d (flush-by-size never fired?)", i, st)
		}
	}
	snap := srv.Metrics()
	total := 0
	for size, n := range snap.BatchSizes {
		total += size * int(n)
	}
	if total != len(clips) {
		t.Fatalf("batch histogram accounts for %d clips, want %d (%v)", total, len(clips), snap.BatchSizes)
	}
	if snap.BatchSizes[4] == 0 {
		// The four posts raced the flush loop; all were answered, but if
		// no size-4 batch formed the size-flush path is suspect. Allow
		// any split whose largest batch is >= 2 — a 1+1+1+1 split under a
		// 10 s deadline would mean size-based flushing never coalesced.
		if snap.BatchSizes[2] == 0 && snap.BatchSizes[3] == 0 {
			t.Fatalf("no coalesced batch formed under a 10s deadline: %v", snap.BatchSizes)
		}
	}
}

// TestFlushByDeadline: one lone request in a 32-clip batcher returns
// promptly via the deadline flush, as a batch of one.
func TestFlushByDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 32
	cfg.MaxWait = 20 * time.Millisecond
	cfg.RequestTimeout = 5 * time.Second
	srv, ts := newTestServer(t, cfg, 5)

	start := time.Now()
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(testClips(1, 43)[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("lone request took %v; deadline flush missing", elapsed)
	}
	if srv.Metrics().BatchSizes[1] == 0 {
		t.Fatalf("no size-1 batch recorded: %v", srv.Metrics().BatchSizes)
	}
}

// TestQueueFullBackpressure: a burst far beyond a 1-slot queue must
// surface 429s while every accepted request still succeeds.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 1
	cfg.MaxBatch = 2
	cfg.MaxWait = 50 * time.Millisecond
	cfg.CacheSize = 0
	_, ts := newTestServer(t, cfg, 5)

	clips := testClips(32, 53)
	saw429 := false
	for round := 0; round < 5 && !saw429; round++ {
		var wg sync.WaitGroup
		status := make([]int, len(clips))
		for i := range clips {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clips[i]))
				status[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for i, st := range status {
			switch st {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				saw429 = true
			default:
				t.Fatalf("clip %d: unexpected status %d", i, st)
			}
		}
	}
	if !saw429 {
		t.Fatal("no 429 from a 32-client burst against a 1-slot queue in 5 rounds")
	}
}

// TestShutdownMidTraffic: closing the server while clients are in flight
// answers every request with 200 or 503 — never a hang, never a lost
// reply — and flips readyz to 503.
func TestShutdownMidTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 8
	cfg.MaxWait = 5 * time.Millisecond
	cfg.CacheSize = 0
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadNetwork(testNet(t, 5), "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	clips := testClips(24, 61)
	var wg sync.WaitGroup
	status := make([]int, len(clips))
	for i := range clips {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clips[i]))
			status[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let some requests get in flight
	srv.Close()
	wg.Wait()
	for i, st := range status {
		if st != http.StatusOK && st != http.StatusServiceUnavailable {
			t.Fatalf("clip %d: status %d, want 200 or 503", i, st)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close: %d, want 503", resp.StatusCode)
	}
	resp2, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clips[0]))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after Close: %d (%s), want 503", resp2.StatusCode, raw)
	}
}

// TestHealthReadyMetricsEndpoints covers the operability surface,
// including readiness before any model is loaded.
func TestHealthReadyMetricsEndpoints(t *testing.T) {
	cfg := testConfig()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.String()
	}

	if st, body := get("/healthz"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", st, body)
	}
	if st, body := get("/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(body, "no model") {
		t.Fatalf("readyz without model: %d %q, want 503/no model", st, body)
	}
	// Predicting without a model is a 503, not a crash.
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(testClips(1, 3)[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict without model: %d (%s), want 503", resp.StatusCode, raw)
	}
	if err := srv.LoadNetwork(testNet(t, 5), "test"); err != nil {
		t.Fatal(err)
	}
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz with model: %d, want 200", st)
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(testClips(1, 3)[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with model: %d", resp.StatusCode)
	}
	st, body := get("/metrics")
	if st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	for _, want := range []string{
		"serve_requests_total{endpoint=\"predict\",status=\"200\"}",
		"serve_cache_hit_rate",
		"serve_batch_size_total",
		"serve_stage_seconds{stage=\"extract\",q=\"p50\"}",
		"serve_stage_seconds{stage=\"infer\",q=\"p99\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestHotReload: /admin/reload atomically swaps checkpoints, clears the
// clip cache, serves the new weights, and leaves the old model serving
// when the new file is garbage.
func TestHotReload(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	clip := testClips(1, 71)[0]

	// Serial references under both weight sets.
	wantOld := serialProbs(t, testNet(t, 5), []geom.Clip{clip}, cfg)[0]
	wantNew := serialProbs(t, testNet(t, 9), []geom.Clip{clip}, cfg)[0]
	if math.Float64bits(wantOld) == math.Float64bits(wantNew) {
		t.Fatal("test nets 5 and 9 agree on the probe clip; pick different seeds")
	}

	dir := t.TempDir()
	ckpt := saveCheckpoint(t, testNet(t, 9), filepath.Join(dir, "new.gob"))

	_, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clip))
	before := decodePredict(t, raw)
	if math.Float64bits(before.Prob) != math.Float64bits(wantOld) {
		t.Fatalf("pre-reload prob %v != serial %v", before.Prob, wantOld)
	}

	resp, raw := postJSON(t, ts.Client(), ts.URL+"/admin/reload", map[string]string{"path": ckpt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d (%s)", resp.StatusCode, raw)
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || info.Origin != ckpt {
		t.Fatalf("reload info %+v, want generation 2 from %s", info, ckpt)
	}

	_, raw = postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clip))
	after := decodePredict(t, raw)
	if after.Cached {
		t.Fatal("cache survived a model reload")
	}
	if math.Float64bits(after.Prob) != math.Float64bits(wantNew) {
		t.Fatalf("post-reload prob %v != serial %v", after.Prob, wantNew)
	}

	// A garbage checkpoint must be rejected and leave the new model up.
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, ts.Client(), ts.URL+"/admin/reload", map[string]string{"path": garbage})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "not a network checkpoint") {
		t.Fatalf("garbage reload: %d (%s), want 400/bad magic", resp.StatusCode, raw)
	}
	_, raw = postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clip))
	still := decodePredict(t, raw)
	if math.Float64bits(still.Prob) != math.Float64bits(wantNew) {
		t.Fatal("failed reload disturbed the serving model")
	}
}

// TestReloadRejectsNonBinaryHead: a checkpoint whose head does not emit
// the two class logits fails at reload with a named error, and the
// previous generation keeps serving, rather than installing a model that
// turns every later predict into a 500.
func TestReloadRejectsNonBinaryHead(t *testing.T) {
	cfg := testConfig()
	srv, ts := newTestServer(t, cfg, 5)
	clip := testClips(1, 71)[0]
	want := serialProbs(t, testNet(t, 5), []geom.Clip{clip}, cfg)[0]

	f := cfg.Feature
	head, err := nn.NewDense("fc", f.K*f.Blocks*f.Blocks, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := saveCheckpoint(t, nn.NewNetwork(head), filepath.Join(t.TempDir(), "three.gob"))
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/admin/reload", map[string]string{"path": ckpt})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "emits 3 outputs, want 2") {
		t.Fatalf("three-logit reload: %d (%s), want 400 naming the output count", resp.StatusCode, raw)
	}
	if info, ok := srv.Model(); !ok || info.Generation != 1 || info.Origin != "test" {
		t.Fatalf("rejected reload replaced the model: %+v", info)
	}
	resp, raw = postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(clip))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after rejected reload: %d (%s)", resp.StatusCode, raw)
	}
	if got := decodePredict(t, raw).Prob; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("predict after rejected reload: prob %v != serial %v", got, want)
	}
}

// saveCheckpoint writes net to path in the nn.Save format and returns path.
func saveCheckpoint(t *testing.T, net *nn.Network, path string) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRequestValidation: malformed requests come back as 400s with JSON
// errors, not 500s.
func TestRequestValidation(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"not json", `{{{`},
		{"no frame", `{"rects":[{"x0":0,"y0":0,"x1":10,"y1":10}]}`},
		{"empty frame", `{"frame":{"x0":0,"y0":0,"x1":0,"y1":0}}`},
		{"core outside frame", `{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"core":{"x0":400,"y0":400,"x1":592,"y1":592}}`},
		{"non-square core", `{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"core":{"x0":0,"y0":0,"x1":192,"y1":96}}`},
		{"indivisible core", `{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"core":{"x0":0,"y0":0,"x1":100,"y1":100}}`},
		{"bitmap size mismatch", `{"bitmap":{"w":48,"h":48,"pix":[0,1]}}`},
		{"bitmap not square", `{"bitmap":{"w":48,"h":32,"pix":[]}}`},
		{"bitmap plus geometry", `{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"bitmap":{"w":48,"h":48,"pix":[]}}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, b.String())
		}
	}
	// Batch-level validation.
	for _, body := range []string{`{}`, `{"clips":[]}`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/predict/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestImageSideBounds: on the paper-shaped default service, a request
// whose image side in pixels falls outside 1..2048 is refused with a 400
// naming the bound before anything is allocated. A 1,000,000 nm frame
// would otherwise rasterize into a 500 GB image, and a 12884901888-pixel
// bitmap side overflows W*H to 0, passes ValidateCore and panics a
// batcher worker; either one would kill the process.
func TestImageSideBounds(t *testing.T) {
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadNetwork(net, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"huge frame", `{"frame":{"x0":0,"y0":0,"x1":1000000,"y1":1000000},"rects":[]}`, http.StatusBadRequest},
		{"overflowing bitmap", `{"bitmap":{"w":12884901888,"h":12884901888,"pix":[]}}`, http.StatusBadRequest},
		{"long thin frame", `{"frame":{"x0":0,"y0":0,"x1":1200,"y1":400000000}}`, http.StatusBadRequest},
		{"1600 nm frame", `{"frame":{"x0":0,"y0":0,"x1":1600,"y1":1600},"rects":[{"x0":700,"y0":0,"x1":760,"y1":1600}]}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if _, err := b.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, b.String(), tc.want)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(b.String(), "each side must be 1..2048 px") {
				t.Fatalf("error %s does not name the side bound", b.String())
			}
		})
	}
}
