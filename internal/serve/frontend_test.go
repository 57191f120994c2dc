package serve

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/raster"
)

// hashSink keeps BenchmarkFrontEnd's hash from being optimized away.
var hashSink uint64

// generatedRequests returns n geometry requests of layout.Generate's
// clips, cycling through the four layout styles, and the clips.
func generatedRequests(n int, rng *rand.Rand) ([]ClipRequest, []geom.Clip) {
	styles := layout.AllStyles()
	crs, clips := make([]ClipRequest, n), make([]geom.Clip, n)
	for i := range crs {
		c := layout.Generate(styles[i%len(styles)], rng)
		f := c.Frame
		cr := ClipRequest{Frame: &RectJSON{X0: f.X0, Y0: f.Y0, X1: f.X1, Y1: f.Y1}}
		for _, r := range c.Rects {
			cr.Rects = append(cr.Rects, RectJSON{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1})
		}
		crs[i], clips[i] = cr, c
	}
	return crs, clips
}

// BenchmarkFrontEnd times the per-clip work a cache miss costs the serve
// front end before the CNN, on the default 300-px core: coreImage
// (band-draw or pack the core's distinct rows), the cache key and the
// feature tensor. Like two 32-clip batch requests in flight, it holds 64
// cores before it puts them back in the pool, so each core is drawn into
// a recycled image that has left the cache. "clips" cycles through 64
// generated clips of all four layout styles, whose core rows mostly
// repeat the row above; "random-bitmap" sends a bitmap of random pixels,
// where no row repeats.
func BenchmarkFrontEnd(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	clips, _ := generatedRequests(64, rng)
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
			held := make([]*raster.Rows, 0, 64)
			for i := 0; i < b.N; i++ {
				im, err := s.coreImage(bc.crs[i%len(bc.crs)])
				if err != nil {
					b.Fatal(err)
				}
				hashSink = hashImage(im)
				if _, err := feature.ExtractTensorFromRows(im, s.cfg.Feature); err != nil {
					b.Fatal(err)
				}
				if held = append(held, im); len(held) == cap(held) {
					s.images.put(held...)
					held = held[:0]
				}
			}
			s.images.put(held...)
		})
	}
}

// pack returns an image's distinct rows.
func pack(im *raster.Image) *raster.Rows {
	r := new(raster.Rows)
	r.Pack(im)
	return r
}

// denseHash is the cache key computed over a dense image, as the server
// computed it before cores were kept as their distinct rows: the rows
// marked as repeating the row above, by a bitwise comparison, are
// skipped, the others hashed in four lanes, and the marks folded in 64
// rows to a word, then W and H. It is the oracle hashImage must match.
func denseHash(im *raster.Image) uint64 {
	w := im.W
	rep := make([]bool, im.H)
	for y := 1; y < im.H; y++ {
		rep[y] = true
		for x := 0; x < w && rep[y]; x++ {
			rep[y] = math.Float64bits(im.At(x, y)) == math.Float64bits(im.At(x, y-1))
		}
	}
	v1, v2, v3, v4 := prime1, prime2, prime3, prime4
	for y := 0; y < im.H; y++ {
		if rep[y] {
			continue
		}
		row := im.Pix[y*w : y*w+w]
		i := 0
		for ; i+4 <= len(row); i += 4 {
			p := row[i : i+4 : i+4]
			v1 = hashRound(v1, math.Float64bits(p[0]))
			v2 = hashRound(v2, math.Float64bits(p[1]))
			v3 = hashRound(v3, math.Float64bits(p[2]))
			v4 = hashRound(v4, math.Float64bits(p[3]))
		}
		switch tail := row[i:]; len(tail) {
		case 3:
			v3 = hashRound(v3, math.Float64bits(tail[2]))
			fallthrough
		case 2:
			v2 = hashRound(v2, math.Float64bits(tail[1]))
			fallthrough
		case 1:
			v1 = hashRound(v1, math.Float64bits(tail[0]))
		}
	}
	h := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
	for _, v := range [4]uint64{v1, v2, v3, v4} {
		h = (h^hashRound(0, v))*prime1 + prime4
	}
	for y0 := 0; y0 < im.H; y0 += 64 {
		var word uint64
		for y := y0; y < min(y0+64, im.H); y++ {
			if rep[y] {
				word |= 1 << (y - y0)
			}
		}
		h = hashFold(h, word)
	}
	h = hashFold(h, uint64(im.W))
	h = hashFold(h, uint64(im.H))
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// TestHashImageMatchesDenseOracle: the cache keys of cores kept as their
// distinct rows are the keys the dense loop computes, so the cache holds
// the same entries as before. It checks generated geometry cores as
// coreImage draws them, the same cores sent as bitmaps, a random bitmap,
// and TestHashImageDistinguishes' cases.
func TestHashImageMatchesDenseOracle(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	crs, clips := generatedRequests(32, rng)
	side := s.cfg.CoreSide / s.cfg.Feature.ResNM
	check := func(what string, cr ClipRequest, want *raster.Image) {
		t.Helper()
		im, err := s.coreImage(cr)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer s.images.put(im)
		checkCoreRows(t, im, want.Pix)
		if got, oracle := hashImage(im), denseHash(want); got != oracle {
			t.Fatalf("%s: key %#x, dense oracle %#x", what, got, oracle)
		}
	}
	for i, cr := range crs {
		f := cr.Frame.rect()
		dense, err := feature.ExtractCoreImage(geom.NewClip(f, clips[i].Rects), CenteredCore(f, s.cfg.CoreSide), s.cfg.Feature)
		if err != nil {
			t.Fatal(err)
		}
		check("geometry core", cr, dense)
		check("bitmap core", ClipRequest{Bitmap: &BitmapJSON{W: side, H: side, Pix: dense.Pix}}, dense)
	}
	random := raster.NewImage(side, side)
	for i := range random.Pix {
		random.Pix[i] = rng.Float64()
	}
	check("random bitmap", ClipRequest{Bitmap: &BitmapJSON{W: side, H: side, Pix: random.Pix}}, random)
	for name, im := range hashCases() {
		if got, oracle := hashImage(pack(im)), denseHash(im); got != oracle {
			t.Fatalf("case %s: key %#x, dense oracle %#x", name, got, oracle)
		}
	}
}

// checkCoreRows fails unless im holds the square core whose row-major
// pixels are want as its distinct rows: its marks equal a row-by-row
// bitwise recomputation over want, and it stores exactly want's unmarked
// rows, in order.
func checkCoreRows(t *testing.T, im *raster.Rows, want []float64) {
	t.Helper()
	w := im.W
	if w != im.H || w*w != len(want) || len(im.Rep) != w {
		t.Fatalf("core is %dx%d with %d marks, want %d pixels", im.W, im.H, len(im.Rep), len(want))
	}
	k := 0
	for y := 0; y < w; y++ {
		row := want[y*w : y*w+w]
		rep := y > 0
		for x := 0; x < w && rep; x++ {
			rep = math.Float64bits(row[x]) == math.Float64bits(want[(y-1)*w+x])
		}
		if im.Rep[y] != rep {
			t.Fatalf("row %d marked %v, but its bits say %v", y, im.Rep[y], rep)
		}
		if rep {
			continue
		}
		if len(im.Pix) < (k+1)*w {
			t.Fatalf("core stores %d pixels, short of row %d", len(im.Pix), y)
		}
		for x, v := range row {
			if math.Float64bits(im.Pix[k*w+x]) != math.Float64bits(v) {
				t.Fatalf("stored row %d (row %d) pixel %d is %v, want %v", k, y, x, im.Pix[k*w+x], v)
			}
		}
		k++
	}
	if len(im.Pix) != k*w {
		t.Fatalf("core stores %d pixels for %d distinct %d-px rows", len(im.Pix), k, w)
	}
}
