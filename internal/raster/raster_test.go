package raster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

func TestRasterizeExactBinary(t *testing.T) {
	// At 1 nm/px with nm-aligned geometry the raster is exactly binary.
	c := geom.NewClip(geom.R(0, 0, 10, 10), []geom.Rect{geom.R(2, 3, 7, 8)})
	im, err := Rasterize(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 10 || im.H != 10 {
		t.Fatalf("image size %dx%d", im.W, im.H)
	}
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			want := 0.0
			if x >= 2 && x < 7 && y >= 3 && y < 8 {
				want = 1.0
			}
			if im.At(x, y) != want {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, im.At(x, y), want)
			}
		}
	}
}

func TestRasterizePartialCoverage(t *testing.T) {
	// A 5-nm-wide stripe at 10 nm/px covers half of each pixel column.
	c := geom.NewClip(geom.R(0, 0, 10, 20), []geom.Rect{geom.R(0, 0, 5, 20)})
	im, err := Rasterize(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 1 || im.H != 2 {
		t.Fatalf("image size %dx%d", im.W, im.H)
	}
	if im.At(0, 0) != 0.5 || im.At(0, 1) != 0.5 {
		t.Fatalf("partial coverage = %v, %v, want 0.5", im.At(0, 0), im.At(0, 1))
	}
}

func TestRasterizeOverlapSaturates(t *testing.T) {
	c := geom.NewClip(geom.R(0, 0, 4, 4), []geom.Rect{
		geom.R(0, 0, 4, 4), geom.R(0, 0, 4, 4),
	})
	im, err := Rasterize(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range im.Pix {
		if v != 1 {
			t.Fatalf("overlap should saturate at 1, got %v", v)
		}
	}
}

func TestRasterizeErrors(t *testing.T) {
	c := geom.NewClip(geom.R(0, 0, 4, 4), nil)
	if _, err := Rasterize(c, 0); err == nil {
		t.Fatal("expected error for non-positive resolution")
	}
	if _, err := Rasterize(c, -3); err == nil {
		t.Fatal("expected error for negative resolution")
	}
}

func TestRasterizeTranslationInvariance(t *testing.T) {
	a := geom.NewClip(geom.R(0, 0, 40, 40), []geom.Rect{geom.R(4, 8, 20, 12)})
	b := geom.NewClip(geom.R(1000, 2000, 1040, 2040), []geom.Rect{geom.R(1004, 2008, 1020, 2012)})
	ia, _ := Rasterize(a, 4)
	ib, _ := Rasterize(b, 4)
	for i := range ia.Pix {
		if ia.Pix[i] != ib.Pix[i] {
			t.Fatal("rasterization should be translation invariant")
		}
	}
}

// Property: total rasterized mass equals drawn area / pixel area for
// non-overlapping geometry, at any resolution.
func TestRasterizeMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		res := []int{1, 2, 4, 5, 8}[r.Intn(5)]
		frame := geom.R(0, 0, 120, 120)
		// Disjoint horizontal stripes.
		var rects []geom.Rect
		y := r.Intn(5)
		for y < 110 {
			h := 1 + r.Intn(12)
			if y+h > 120 {
				break
			}
			x0 := r.Intn(40)
			x1 := x0 + 1 + r.Intn(80-x0+39)
			if x1 > 120 {
				x1 = 120
			}
			rects = append(rects, geom.R(x0, y, x1, y+h))
			y += h + 1 + r.Intn(8)
		}
		c := geom.NewClip(frame, rects)
		im, err := Rasterize(c, res)
		if err != nil {
			return false
		}
		wantMass := float64(c.DrawnArea()) / float64(res*res)
		return math.Abs(im.Sum()-wantMass) < 1e-9*(1+wantMass)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubImage(t *testing.T) {
	im := NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = float64(i)
	}
	sub, err := im.SubImage(1, 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.W != 2 || sub.H != 2 {
		t.Fatalf("sub size %dx%d", sub.W, sub.H)
	}
	if sub.At(0, 0) != 5 || sub.At(1, 1) != 10 {
		t.Fatalf("sub values: %v", sub.Pix)
	}
	if _, err := im.SubImage(-1, 0, 2, 2); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := im.SubImage(0, 0, 5, 2); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestThreshold(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0], im.Pix[1] = 0.3, 0.7
	b := im.Threshold(0.5)
	if b.Pix[0] != 0 || b.Pix[1] != 1 {
		t.Fatalf("threshold: %v", b.Pix)
	}
	// Boundary is inclusive.
	b2 := im.Threshold(0.7)
	if b2.Pix[1] != 1 {
		t.Fatal("threshold should be inclusive")
	}
}

func TestDownsample(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(0, 0, 1)
	im.Set(1, 0, 1)
	im.Set(0, 1, 1)
	im.Set(1, 1, 1)
	d, err := im.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsample size %dx%d", d.W, d.H)
	}
	if d.At(0, 0) != 1 || d.At(1, 0) != 0 || d.At(0, 1) != 0 || d.At(1, 1) != 0 {
		t.Fatalf("downsample values: %v", d.Pix)
	}
	if _, err := im.Downsample(3); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := im.Downsample(0); err == nil {
		t.Fatal("expected positive-factor error")
	}
}

func TestDownsamplePreservesMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		im := NewImage(8, 8)
		for i := range im.Pix {
			im.Pix[i] = r.Float64()
		}
		d, err := im.Downsample(2)
		if err != nil {
			return false
		}
		return math.Abs(mean(d)-mean(im)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestASCII(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(0, 0, 1)
	s := im.ASCII()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("ASCII lines = %d", len(lines))
	}
	// y=0 row prints last (bottom).
	if lines[1][0] != '#' {
		t.Fatalf("ASCII bottom-left = %q", lines[1][0])
	}
	if lines[0][0] != ' ' {
		t.Fatalf("ASCII top-left = %q", lines[0][0])
	}
}

func TestCloneIndependent(t *testing.T) {
	im := NewImage(2, 2)
	c := im.Clone()
	c.Set(0, 0, 5)
	if im.At(0, 0) != 0 {
		t.Fatal("clone shares pixels")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	im := NewImage(7, 5)
	for i := range im.Pix {
		im.Pix[i] = float64(i%256) / 255
	}
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != im.W || got.H != im.H {
		t.Fatalf("roundtrip size %dx%d", got.W, got.H)
	}
	for i := range im.Pix {
		if math.Abs(got.Pix[i]-im.Pix[i]) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d: %v vs %v", i, got.Pix[i], im.Pix[i])
		}
	}
}

func TestPGMClampsOutOfRange(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0], im.Pix[1] = -0.5, 1.5
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pix[0] != 0 || got.Pix[1] != 1 {
		t.Fatalf("clamping failed: %v", got.Pix)
	}
}

func TestPGMErrors(t *testing.T) {
	empty := NewImage(0, 0)
	var buf bytes.Buffer
	if err := empty.WritePGM(&buf); err == nil {
		t.Fatal("expected empty-image error")
	}
	if _, err := ReadPGM(bytes.NewReader([]byte("P6\n2 2\n255\n"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadPGM(bytes.NewReader([]byte("P5\n2 2\n255\nX"))); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := ReadPGM(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected header error")
	}
}

// mean returns the average pixel value of a non-empty image.
func mean(im *Image) float64 { return im.Sum() / float64(len(im.Pix)) }

// ReadPGM parses a binary 8-bit PGM written by WritePGM (or any P5 file
// with maxval 255), inverting the top-down row order back to y-up: the
// reader WritePGM's round-trip tests decode with.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxval int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxval); err != nil {
		return nil, fmt.Errorf("raster: bad PGM header: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("raster: unsupported PGM magic %q", magic)
	}
	if w <= 0 || h <= 0 || maxval != 255 {
		return nil, fmt.Errorf("raster: unsupported PGM geometry %dx%d maxval %d", w, h, maxval)
	}
	// Exactly one whitespace byte separates the header from pixel data.
	if _, err := br.ReadByte(); err != nil {
		return nil, err
	}
	im := NewImage(w, h)
	row := make([]byte, w)
	for y := h - 1; y >= 0; y-- {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("raster: truncated PGM: %w", err)
		}
		for x, b := range row {
			im.Set(x, y, float64(b)/255)
		}
	}
	return im, nil
}
