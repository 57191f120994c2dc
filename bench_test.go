// Package hotspot_test hosts the repository-level benchmark harness: one
// testing.B entry point per table and figure of the paper (backed by
// internal/experiments) plus micro-benchmarks of the substrates they run
// on. Experiment benchmarks are sized for a single-core laptop; suites are
// cached under .benchcache so lithography labelling runs once across
// benchmarks and repeated runs.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package hotspot_test

import (
	"math/rand"
	"os"
	"testing"

	"hotspot/internal/dct"
	"hotspot/internal/experiments"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
)

// benchOpts returns the shared experiment options: ~0.4% of the paper's
// sample counts and a reduced iteration budget, cached across benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:    0.004,
		Seed:     1,
		CacheDir: ".benchcache",
		Iters:    400,
	}
}

// --- Experiment benchmarks: one per table/figure -------------------------

func BenchmarkTable1NetworkConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkTable2(b *testing.B, bench string) {
	b.Helper()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2([]string{bench}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatal("expected one row")
		}
		b.ReportMetric(100*rows[0].Ours.Accuracy, "ours-accuracy-%")
		b.ReportMetric(float64(rows[0].Ours.FalseAlarms), "ours-FA")
	}
}

func BenchmarkTable2_ICCAD(b *testing.B)     { benchmarkTable2(b, "ICCAD") }
func BenchmarkTable2_Industry1(b *testing.B) { benchmarkTable2(b, "Industry1") }
func BenchmarkTable2_Industry2(b *testing.B) { benchmarkTable2(b, "Industry2") }
func BenchmarkTable2_Industry3(b *testing.B) { benchmarkTable2(b, "Industry3") }

func BenchmarkFig1FeatureTensor(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig1(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Compression, "compression-x")
		b.ReportMetric(100*res.RelL2Error, "rel-L2-err-%")
	}
}

func BenchmarkFig2Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3SGDvsMGD(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig3(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MGD) == 0 || len(res.SGD) == 0 {
			b.Fatal("empty training histories")
		}
	}
}

func BenchmarkFig4BiasVsShift(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig4(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bias) != len(res.Shift) {
			b.Fatal("mismatched trade-off curves")
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkDCTBlock25(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	block := make([]float64, 25*25)
	for i := range block {
		block[i] = rng.Float64()
	}
	dst, tmp := make([]float64, 7*7), make([]float64, 25*tensor.TileWidth(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dct.ForwardTruncated2DInto(dst, tmp, block, 25, 25, 7, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureTensorExtract(b *testing.B) {
	style := layout.StyleICCAD()
	clip := layout.Generate(style, rand.New(rand.NewSource(2)))
	cfg := feature.DefaultTensorConfig()
	core := style.CoreRect()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feature.ExtractTensor(clip, core, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRasterizeClip(b *testing.B) {
	style := layout.StyleICCAD()
	clip := layout.Generate(style, rand.New(rand.NewSource(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := raster.Rasterize(clip, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLithoOracle(b *testing.B) {
	style := layout.StyleICCAD()
	clip := layout.Generate(style, rand.New(rand.NewSource(4)))
	labeler, err := layout.NewLabeler(style, litho.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := labeler.Label(clip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAerialImage(b *testing.B) {
	cfg := litho.DefaultConfig()
	sim, err := litho.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	clip := geom.NewClip(geom.R(0, 0, 1600, 1600), []geom.Rect{
		geom.R(100, 0, 180, 1600), geom.R(400, 0, 480, 1600),
		geom.R(700, 200, 780, 1400), geom.R(1000, 0, 1080, 1600),
	})
	mask, err := raster.Rasterize(clip, cfg.ResNM)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Aerial(mask, 0)
	}
}

func BenchmarkGenerateClip(b *testing.B) {
	style := layout.StyleIndustry3()
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.Generate(style, rng)
	}
}

func BenchmarkCCSExtract(b *testing.B) {
	style := layout.StyleICCAD()
	clip := layout.Generate(style, rand.New(rand.NewSource(6)))
	cfg := feature.DefaultCCSConfig()
	core := style.CoreRect()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feature.ExtractCCS(clip, core, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	os.Exit(code)
}
