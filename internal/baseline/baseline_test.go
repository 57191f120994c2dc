package baseline

import (
	"math/rand"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// syntheticSamples builds a deterministic, cleanly separable labelled set
// without invoking the lithography oracle: hotspots are dense clips,
// non-hotspots sparse. This isolates the detector mechanics from suite
// generation.
func syntheticSamples(n int, seed int64) []layout.Sample {
	rng := rand.New(rand.NewSource(seed))
	frame := geom.R(0, 0, 576, 576)
	out := make([]layout.Sample, n)
	for i := range out {
		hot := i%2 == 0
		var rects []geom.Rect
		pitch := 144
		width := 32
		if hot {
			pitch = 64
			width = 40
		}
		off := rng.Intn(24) * 8
		for x := off; x+width < 576; x += pitch {
			rects = append(rects, geom.R(x, 0, x+width, 576))
		}
		out[i] = layout.Sample{Clip: geom.NewClip(frame, rects), Hotspot: hot}
	}
	return out
}

var testCore = geom.R(0, 0, 576, 576)

func smallSPIE15Config() SPIE15Config {
	return SPIE15Config{Density: feature.DensityConfig{Grid: 12, ResNM: 4}, Rounds: 30}
}

func smallICCAD16Config() ICCAD16Config {
	cfg := DefaultICCAD16Config()
	cfg.Rounds = 30
	cfg.SelectTop = 24
	return cfg
}

func TestSPIE15LearnsSeparableTask(t *testing.T) {
	samples := syntheticSamples(40, 1)
	det, err := TrainSPIE15(samples[:30], testCore, smallSPIE15Config())
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Evaluate(samples[30:], "test")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("SPIE15 accuracy %.2f on separable task", res.Accuracy)
	}
	if res.FalseAlarms > 0 {
		t.Fatalf("SPIE15 FA %d on separable task", res.FalseAlarms)
	}
	if res.ODST < res.CPU.Seconds() {
		t.Fatal("ODST below CPU time")
	}
}

func TestSPIE15Predict(t *testing.T) {
	samples := syntheticSamples(30, 2)
	det, err := TrainSPIE15(samples, testCore, smallSPIE15Config())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := det.Predict(samples[0].Clip)
	if err != nil {
		t.Fatal(err)
	}
	if hot != samples[0].Hotspot {
		t.Fatal("misclassified a training clip of a separable task")
	}
}

func TestSPIE15Errors(t *testing.T) {
	samples := syntheticSamples(10, 3)
	bad := smallSPIE15Config()
	bad.Rounds = 0
	if _, err := TrainSPIE15(samples, testCore, bad); err == nil {
		t.Fatal("expected rounds error")
	}
	badDensity := smallSPIE15Config()
	badDensity.Density.Grid = 0
	if _, err := TrainSPIE15(samples, testCore, badDensity); err == nil {
		t.Fatal("expected density config error")
	}
	det, err := TrainSPIE15(samples, testCore, smallSPIE15Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Evaluate(nil, "x"); err == nil {
		t.Fatal("expected empty test set error")
	}
}

func TestICCAD16LearnsSeparableTask(t *testing.T) {
	samples := syntheticSamples(40, 4)
	det, err := TrainICCAD16(samples[:30], testCore, smallICCAD16Config())
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Evaluate(samples[30:], "test")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("ICCAD16 accuracy %.2f on separable task", res.Accuracy)
	}
}

func TestICCAD16OnlineUpdate(t *testing.T) {
	samples := syntheticSamples(60, 5)
	det, err := TrainICCAD16(samples[:30], testCore, smallICCAD16Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Update(samples[30:50], 10); err != nil {
		t.Fatal(err)
	}
	res, err := det.Evaluate(samples[50:], "test")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("post-update accuracy %.2f", res.Accuracy)
	}
}

func TestICCAD16SelectTopClamped(t *testing.T) {
	samples := syntheticSamples(30, 6)
	cfg := smallICCAD16Config()
	cfg.SelectTop = 100000 // beyond CCS dimensionality: clamped, not an error
	if _, err := TrainICCAD16(samples, testCore, cfg); err != nil {
		t.Fatalf("SelectTop clamp failed: %v", err)
	}
}

func TestICCAD16Errors(t *testing.T) {
	samples := syntheticSamples(10, 7)
	bad := smallICCAD16Config()
	bad.Rounds = 0
	if _, err := TrainICCAD16(samples, testCore, bad); err == nil {
		t.Fatal("expected rounds error")
	}
	bad = smallICCAD16Config()
	bad.MIBins = 1
	if _, err := TrainICCAD16(samples, testCore, bad); err == nil {
		t.Fatal("expected bins error")
	}
	bad = smallICCAD16Config()
	bad.CCS.Rings = 0
	if _, err := TrainICCAD16(samples, testCore, bad); err == nil {
		t.Fatal("expected CCS config error")
	}
}
