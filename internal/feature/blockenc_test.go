package feature

import (
	"math"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/raster"
)

// TestBlockEncoderMatchesExtractTensor drives the scan engine's parity
// contract at its root: encoding each pixel block of a rasterized core
// through a standalone BlockEncoder must reproduce ExtractTensor's output
// bit for bit, under both scalings.
func TestBlockEncoderMatchesExtractTensor(t *testing.T) {
	for _, cfg := range []TensorConfig{testCfg(), testCfgNorm()} {
		c := testClip()
		ft, err := ExtractTensor(c, c.Frame, cfg)
		if err != nil {
			t.Fatal(err)
		}
		im, err := ExtractCoreImage(c, c.Frame, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cfg.BlockPx(c.Frame.W())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := cfg.NewBlockEncoder(b)
		if err != nil {
			t.Fatal(err)
		}
		if enc.BlockPx() != b || enc.K() != cfg.K {
			t.Fatalf("encoder geometry (%d, %d), want (%d, %d)", enc.BlockPx(), enc.K(), b, cfg.K)
		}
		block := make([]float64, b*b)
		vec := make([]float64, cfg.K)
		for by := 0; by < cfg.Blocks; by++ {
			for bx := 0; bx < cfg.Blocks; bx++ {
				for y := 0; y < b; y++ {
					srcRow := (by*b + y) * im.W
					copy(block[y*b:(y+1)*b], im.Pix[srcRow+bx*b:srcRow+bx*b+b])
				}
				if err := enc.EncodeInto(vec, block); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cfg.K; i++ {
					if vec[i] != ft.At(i, by, bx) {
						t.Fatalf("normalize=%v block (%d,%d) coeff %d: encoder %v, tensor %v",
							cfg.Normalize, bx, by, i, vec[i], ft.At(i, by, bx))
					}
				}
			}
		}
	}
}

func TestBlockPx(t *testing.T) {
	b, err := testCfg().BlockPx(480)
	if err != nil {
		t.Fatal(err)
	}
	if b != 10 {
		t.Fatalf("BlockPx(480) = %d, want 10", b)
	}
	if _, err := testCfg().BlockPx(482); err == nil {
		t.Error("expected error for core not divisible by resolution")
	}
	if _, err := testCfg().BlockPx(400); err == nil {
		t.Error("expected error for core not divisible into blocks")
	}
}

func TestNewBlockEncoderErrors(t *testing.T) {
	if _, err := testCfg().NewBlockEncoder(0); err == nil {
		t.Error("expected error for zero block size")
	}
	if _, err := testCfg().NewBlockEncoder(5); err == nil {
		t.Error("expected error for K over block capacity")
	}
	bad := TensorConfig{Blocks: 0, K: 32, ResNM: 4}
	if _, err := bad.NewBlockEncoder(10); err == nil {
		t.Error("expected error for invalid config")
	}
}

// servedClip is a serve-shaped clip: a 1600 nm frame whose centered
// 1200 nm core the default configuration turns into a 300×300 image of
// 25-pixel blocks, with wires crossing the core's edges.
func servedClip() (geom.Clip, geom.Rect) {
	return geom.NewClip(geom.R(0, 0, 1600, 1600), []geom.Rect{
		geom.R(150, 0, 230, 1600),
		geom.R(610, 190, 690, 1410),
		geom.R(0, 700, 1600, 770),
		geom.R(1010, 1010, 1390, 1090),
	}), geom.R(200, 200, 1400, 1400)
}

// TestExtractAllocations pins the per-clip allocation budget of the serve
// front end: the core image is its header and its pixels, and a tensor
// extraction is the encoder, the tensor and nothing per block.
func TestExtractAllocations(t *testing.T) {
	clip, core := servedClip()
	cfg := DefaultTensorConfig()
	im, err := ExtractCoreImage(clip, core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractTensorFromImage(im, cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ExtractCoreImage(clip, core, cfg) }); n > 2 {
		t.Errorf("ExtractCoreImage: %v allocations per clip, want at most 2", n)
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = ExtractTensorFromImage(im, cfg) }); n > 10 {
		t.Errorf("ExtractTensorFromImage: %v allocations per clip, want at most 10", n)
	}
	var rows raster.Rows
	if n := testing.AllocsPerRun(5, func() { _ = RasterizeCore(&rows, clip, core, cfg) }); n != 0 {
		t.Errorf("RasterizeCore into a warm form: %v allocations, want 0", n)
	}
}

// TestExtractRowMarks: extraction writes the same bits whichever way the
// core's rows reach the block DCT — drawn as distinct rows by
// RasterizeCore, as offline ExtractTensor draws them, or drawn dense and
// packed by ExtractTensorFromImage — at 25- and 75-px blocks, and each
// tensor matches EncodeInto, which reads every row of a dense block.
func TestExtractRowMarks(t *testing.T) {
	clip, core := servedClip()
	for _, cfg := range []TensorConfig{DefaultTensorConfig(), {Blocks: 4, K: 32, ResNM: 4}} {
		im, err := ExtractCoreImage(clip, core, cfg)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := ExtractTensorFromImage(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rows raster.Rows
		if err := RasterizeCore(&rows, clip, core, cfg); err != nil {
			t.Fatal(err)
		}
		drawn, err := ExtractTensorFromRows(&rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := ExtractTensor(clip, core, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := im.W / cfg.Blocks
		enc, err := cfg.NewBlockEncoder(b)
		if err != nil {
			t.Fatal(err)
		}
		block, vec := make([]float64, b*b), make([]float64, cfg.K)
		for by := 0; by < cfg.Blocks; by++ {
			for bx := 0; bx < cfg.Blocks; bx++ {
				for y := 0; y < b; y++ {
					copy(block[y*b:y*b+b], im.Pix[(by*b+y)*im.W+bx*b:])
				}
				if err := enc.EncodeInto(vec, block); err != nil {
					t.Fatal(err)
				}
				for i, v := range vec[:cfg.K] {
					for _, got := range []struct {
						name string
						x    float64
					}{{"packed", packed.At(i, by, bx)}, {"drawn", drawn.At(i, by, bx)}, {"offline", offline.At(i, by, bx)}} {
						if math.Float64bits(got.x) != math.Float64bits(v) {
							t.Fatalf("%d-px blocks, block (%d,%d) coeff %d: %s %v, EncodeInto %v", b, bx, by, i, got.name, got.x, v)
						}
					}
				}
			}
		}
	}
}

// TestEncodeIntoErrors: EncodeInto validates the block and dst lengths
// before it reaches the kernel.
func TestEncodeIntoErrors(t *testing.T) {
	enc, err := testCfg().NewBlockEncoder(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeInto(make([]float64, 32), make([]float64, 99)); err == nil {
		t.Error("expected error for a short block")
	}
	if err := enc.EncodeInto(make([]float64, 31), make([]float64, 100)); err == nil {
		t.Error("expected error for a short dst")
	}
}

func BenchmarkExtractCoreImage(b *testing.B) {
	clip, core := servedClip()
	cfg := DefaultTensorConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractCoreImage(clip, core, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractTensorFromImage(b *testing.B) {
	clip, core := servedClip()
	cfg := DefaultTensorConfig()
	im, err := ExtractCoreImage(clip, core, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractTensorFromImage(im, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
