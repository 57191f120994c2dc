package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
)

// FuzzClipRequest feeds arbitrary bytes through single-clip request
// decoding: the JSON decode, the rectangle bound and coreImage, as
// handlePredict runs them. Nothing may panic, and an accepted clip must
// come back as the served core, a square CoreSide/ResNM-px image with
// every stored pixel 0 or in [0x1p-1022, 1] (never subnormal), kept as
// the distinct rows of the dense core — the bitmap sent, or
// feature.ExtractCoreImage of the same geometry: it stores exactly the
// rows whose bits differ from the row above, and its row marks are what a
// row-by-row bitwise comparison of those pixels gives. It then goes back
// to the pool. The server is smallServer's. The seed corpus in
// testdata/fuzz/FuzzClipRequest holds the TestImageSideBounds bodies, a
// core filling a 2048-px frame, a body with a bare NaN token (not JSON, so
// the decoder rejects it), a full bitmap whose last pixel is subnormal, a
// bitmap whose rows alternate +0 and −0 (equal under ==, not bit for bit),
// a valid clip and a valid bitmap.
func FuzzClipRequest(f *testing.F) {
	s := smallServer(f)
	side := s.cfg.CoreSide / s.cfg.Feature.ResNM
	f.Fuzz(func(t *testing.T, body []byte) {
		var cr ClipRequest
		if json.Unmarshal(body, &cr) != nil || checkRects(len(cr.Rects)) != nil {
			return
		}
		im, err := s.coreImage(cr)
		if err != nil {
			return
		}
		defer s.images.put(im)
		if im.W != side || im.H != side {
			t.Fatalf("accepted clip rasterized to %dx%d px, want the served %dx%d", im.W, im.H, side, side)
		}
		for i, v := range im.Pix {
			if !(v == 0 || v >= 0x1p-1022 && v <= 1) {
				t.Fatalf("stored pixel %d is %v, neither 0 nor in [0x1p-1022, 1]", i, v)
			}
		}
		var want []float64
		if cr.Bitmap != nil {
			want = cr.Bitmap.Pix
		} else {
			frame, core := cr.Frame.rect(), CenteredCore(cr.Frame.rect(), s.cfg.CoreSide)
			if cr.Core != nil {
				core = cr.Core.rect()
			}
			rects := make([]geom.Rect, len(cr.Rects))
			for i, r := range cr.Rects {
				rects[i] = r.rect()
			}
			dense, err := feature.ExtractCoreImage(geom.NewClip(frame, rects), core, s.cfg.Feature)
			if err != nil {
				t.Fatalf("accepted clip's dense core: %v", err)
			}
			want = dense.Pix
		}
		checkCoreRows(t, im, want)
	})
}

// TestCoreImageNonFinitePixel reaches the NaN branch of the bitmap pixel
// check, which no request body can (JSON has no NaN or infinity): a full
// served-core bitmap whose last pixel is NaN, +Inf or −Inf gets the named
// range error. A range test written as v < 0 || v > 1 would let NaN
// through.
func TestCoreImageNonFinitePixel(t *testing.T) {
	s := smallServer(t)
	side := s.cfg.CoreSide / s.cfg.Feature.ResNM
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pix := make([]float64, side*side)
		for i := range pix {
			pix[i] = 0.5
		}
		last := len(pix) - 1
		pix[last] = v
		im, err := s.coreImage(ClipRequest{Bitmap: &BitmapJSON{W: side, H: side, Pix: pix}})
		if err == nil {
			s.images.put(im)
			t.Fatalf("last pixel %v accepted", v)
		}
		if want := fmt.Sprintf("bitmap pixel %d is %v, outside [0, 1]", last, v); err.Error() != want {
			t.Fatalf("last pixel %v: error %q, want %q", v, err, want)
		}
	}
}

// smallServer is a server with the serve tests' small geometry, 48-px
// cores, so a full bitmap stays small.
func smallServer(tb testing.TB) *Server {
	cfg := DefaultConfig()
	cfg.Feature = feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
	cfg.CoreSide = 192
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}
