package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"hotspot/internal/serve"
)

// TestBitmapPixelRange: a bitmap pixel outside [0, 1] is rejected with a
// 400 that names it, instead of being scored into a plausible-looking
// probability, and so is a subnormal one, which would put the scoring on
// the CPU's slow path. Each value fills a whole bitmap, and once more only
// its last pixel.
func TestBitmapPixelRange(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	side := cfg.CoreSide / cfg.Feature.ResNM
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{1e308, "outside [0, 1]"},
		{2, "outside [0, 1]"},
		{-1, "outside [0, 1]"},
		{5e-324, "subnormal"},
		{0x1p-1023, "subnormal"},
	} {
		v := tc.v
		for _, only := range []string{"all", "last"} {
			t.Run(fmt.Sprintf("%g/%s", v, only), func(t *testing.T) {
				pix := make([]float64, side*side)
				for i := range pix {
					if only == "all" || i == len(pix)-1 {
						pix[i] = v
					} else {
						pix[i] = 0.5
					}
				}
				bm := serve.BitmapJSON{W: side, H: side, Pix: pix}
				resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", serve.ClipRequest{Bitmap: &bm})
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d (%s), want 400", resp.StatusCode, raw)
				}
				if !strings.Contains(string(raw), tc.want) {
					t.Fatalf("error %s does not say %q", raw, tc.want)
				}
			})
		}
	}
}

// rectsBody is a single-clip predict body drawing n copies of one small
// rectangle in the frame's corner, outside the core, so the request is
// cheap to rasterize whatever n is.
func rectsBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"rects":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"x0":0,"y0":0,"x1":8,"y1":8}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestRectangleBound: a request may draw at most 65,536 rectangles,
// summed over its clips; one more is a 400 naming the limit, checked
// before anything is rasterized.
func TestRectangleBound(t *testing.T) {
	const limit = 65536
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.String()
	}
	if code, body := post("/v1/predict", rectsBody(limit)); code != http.StatusOK {
		t.Fatalf("at the bound: status %d (%s), want 200", code, body)
	}
	code, body := post("/v1/predict", rectsBody(limit+1))
	if code != http.StatusBadRequest || !strings.Contains(body, "65536-rectangle request limit") {
		t.Fatalf("past the bound: status %d (%s), want a 400 naming the limit", code, body)
	}
	// Two clips of half the bound each, plus one rectangle.
	half := rectsBody(limit / 2)
	batch := func(extra int) []byte {
		return []byte(`{"clips":[` + string(half) + `,` + string(rectsBody(limit/2+extra)) + `]}`)
	}
	if code, body := post("/v1/predict/batch", batch(0)); code != http.StatusOK {
		t.Fatalf("batch at the bound: status %d (%s), want 200", code, body)
	}
	code, body = post("/v1/predict/batch", batch(1))
	if code != http.StatusBadRequest || !strings.Contains(body, "65537 rectangles exceeds") {
		t.Fatalf("batch past the bound: status %d (%s), want a 400 naming the count", code, body)
	}
}

// TestCoreSideBound: a clip's core is the served one, CoreSide nm or
// CoreSide/ResNM px a side, so each clip costs at most one served core
// image. A body of eight clips whose explicit cores fill 2,048-px frames
// — 33 MB of pixels each — is a 400 naming the served side, refused before
// anything is rasterized, as are a bitmap and an explicit core of another
// side; a served-side core off the frame's centre is scored.
func TestCoreSideBound(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg, 5)
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.String()
	}
	frameNM := 2048 * cfg.Feature.ResNM
	clip := fmt.Sprintf(`{"frame":{"x0":0,"y0":0,"x1":%d,"y1":%d},"core":{"x0":0,"y0":0,"x1":%d,"y1":%d},"rects":[{"x0":0,"y0":0,"x1":8,"y1":8}]}`,
		frameNM, frameNM, frameNM, frameNM)
	big := []byte(`{"clips":[` + strings.Repeat(clip+",", 7) + clip + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body := post("/v1/predict/batch", big)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || !strings.Contains(body, "not the served 192x192 nm core") {
		t.Fatalf("eight 2048-px cores: status %d (%s), want a 400 naming the served side", code, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("eight 2048-px cores allocated %d bytes before the 400, want under 8 MB", grew)
	}
	side := cfg.CoreSide / cfg.Feature.ResNM
	pix := strings.TrimSuffix(strings.Repeat("0.5,", (side+4)*(side+4)), ",")
	code, body = post("/v1/predict", []byte(fmt.Sprintf(`{"bitmap":{"w":%d,"h":%d,"pix":[%s]}}`, side+4, side+4, pix)))
	if code != http.StatusBadRequest || !strings.Contains(body, "not the served 48x48 px core") {
		t.Fatalf("52-px bitmap: status %d (%s), want a 400 naming the served side", code, body)
	}
	code, body = post("/v1/predict", []byte(`{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"core":{"x0":0,"y0":0,"x1":96,"y1":96}}`))
	if code != http.StatusBadRequest || !strings.Contains(body, "not the served 192x192 nm core") {
		t.Fatalf("96 nm core: status %d (%s), want a 400 naming the served side", code, body)
	}
	code, body = post("/v1/predict", []byte(`{"frame":{"x0":0,"y0":0,"x1":480,"y1":480},"core":{"x0":100,"y0":60,"x1":292,"y1":252},"rects":[{"x0":120,"y0":80,"x1":200,"y1":240}]}`))
	if code != http.StatusOK {
		t.Fatalf("off-centre served-side core: status %d (%s), want 200", code, body)
	}
}

// TestTimedOutRequestKeepsImage pins the core-image ownership rule: a
// request abandoned on timeout while still queued keeps its image, so
// later requests rasterizing into recycled images cannot overwrite the
// pixels the batcher has yet to extract. If the abandoned image were
// recycled, the batch would score another clip's pixels and cache that
// probability under the first clip's key. With one P the image pool hands
// a returned image straight to the next request, so a wrongly recycled
// image is certain to be redrawn.
func TestTimedOutRequestKeepsImage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig()
	cfg.MaxBatch = 64
	cfg.MaxWait = time.Second
	cfg.RequestTimeout = 20 * time.Millisecond
	srv, ts := newTestServer(t, cfg, 5)
	clips := testClips(6, 43)
	want := serialProbs(t, testNet(t, 5), clips, cfg)
	for i := 1; i < len(clips); i++ {
		if math.Float64bits(want[i]) == math.Float64bits(want[0]) {
			t.Fatalf("clip %d scores like clip 0; the test needs distinct probabilities", i)
		}
	}
	// Clip 0 times out queued; the rest rasterize after its handler has
	// given up. They time out too unless the flush catches one of them
	// inside its own timeout.
	for i, c := range clips {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(c))
		if resp.StatusCode != http.StatusGatewayTimeout && (i == 0 || resp.StatusCode != http.StatusOK) {
			t.Fatalf("clip %d: status %d (%s), want 504 while queued", i, resp.StatusCode, raw)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().CacheLen < len(clips) {
		if time.Now().After(deadline) {
			t.Fatalf("the batch never cached its %d clips", len(clips))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, c := range clips {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/predict", clipRequest(c))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clip %d again: status %d (%s)", i, resp.StatusCode, raw)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Cached || math.Float64bits(pr.Prob) != math.Float64bits(want[i]) {
			t.Fatalf("clip %d again: prob %v (cached %v), want the serial %v", i, pr.Prob, pr.Cached, want[i])
		}
	}
}
