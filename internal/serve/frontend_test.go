package serve

import (
	"math/rand"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/layout"
)

// hashSink keeps BenchmarkFrontEnd's hash from being optimized away.
var hashSink uint64

// BenchmarkFrontEnd times the per-clip work a cache miss costs the serve
// front end before the CNN, on the default 300-px core: coreImage
// (rasterize or copy, then mark the rows), the cache key and the feature
// tensor. "clips" cycles through 64 generated clips of all four layout
// styles, whose core rows mostly repeat the row above; "random-bitmap"
// sends a bitmap of random pixels, where no row repeats, so the row marks
// are pure overhead.
func BenchmarkFrontEnd(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	styles := layout.AllStyles()
	clips := make([]ClipRequest, 64)
	for i := range clips {
		c := layout.Generate(styles[i%len(styles)], rng)
		f := c.Frame
		cr := ClipRequest{Frame: &RectJSON{X0: f.X0, Y0: f.Y0, X1: f.X1, Y1: f.Y1}}
		for _, r := range c.Rects {
			cr.Rects = append(cr.Rects, RectJSON{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1})
		}
		clips[i] = cr
	}
	side := s.cfg.CoreSide / s.cfg.Feature.ResNM
	pix := make([]float64, side*side)
	for i := range pix {
		pix[i] = rng.Float64()
	}
	random := []ClipRequest{{Bitmap: &BitmapJSON{W: side, H: side, Pix: pix}}}
	for _, bc := range []struct {
		name string
		crs  []ClipRequest
	}{{"clips", clips}, {"random-bitmap", random}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im, err := s.coreImage(bc.crs[i%len(bc.crs)])
				if err != nil {
					b.Fatal(err)
				}
				hashSink = hashImage(im)
				if _, err := feature.ExtractTensorFromImage(im, s.cfg.Feature); err != nil {
					b.Fatal(err)
				}
				s.images.put(im)
			}
		})
	}
}
