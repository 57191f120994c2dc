package serve

import (
	"encoding/json"
	"testing"

	"hotspot/internal/feature"
)

// FuzzClipRequest feeds arbitrary bytes through single-clip request
// decoding: the JSON decode, the rectangle bound and coreImage, as
// handlePredict runs them. Nothing may panic, and an accepted clip must
// come back as the served core, a square CoreSide/ResNM-px image with
// every pixel 0 or in [0x1p-1022, 1] (never subnormal); it then goes back
// to the pool. The server is the serve tests' small geometry (48-px
// cores), so a valid bitmap seed stays small. The seed corpus in
// testdata/fuzz/FuzzClipRequest holds the TestImageSideBounds bodies, a
// core filling a 2048-px frame, a NaN pixel, a full bitmap whose last
// pixel is subnormal, a valid clip and a valid bitmap.
func FuzzClipRequest(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Feature = feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
	cfg.CoreSide = 192
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	side := cfg.CoreSide / cfg.Feature.ResNM
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
		if im.W != side || im.H != side || len(im.Pix) != side*side {
			t.Fatalf("accepted clip rasterized to %dx%d px (%d pixels), want the served %dx%d", im.W, im.H, len(im.Pix), side, side)
		}
		for i, v := range im.Pix {
			if !(v == 0 || v >= 0x1p-1022 && v <= 1) {
				t.Fatalf("pixel %d is %v, neither 0 nor in [0x1p-1022, 1]", i, v)
			}
		}
	})
}
