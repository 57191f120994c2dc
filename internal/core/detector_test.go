package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/train"
)

// smallConfig returns a reduced detector for fast tests: a 4-block feature
// tensor into a narrow CNN with a short schedule.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Feature = feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
	cfg.Net = nn.PaperNetConfig{
		InChannels: 8, SpatialSize: 4, Conv1Maps: 4, Conv2Maps: 4,
		FC1: 12, DropoutRate: 0.5, Seed: 2,
	}
	cfg.Biased.Initial.MaxIters = 200
	cfg.Biased.Initial.ValEvery = 50
	cfg.Biased.Initial.DecayStep = 100
	cfg.Biased.FineTune.MaxIters = 60
	cfg.Biased.FineTune.ValEvery = 20
	cfg.Biased.FineTune.DecayStep = 30
	cfg.Biased.Rounds = 2
	return cfg
}

// separableClips builds clips whose label follows density (dense = hotspot),
// a task the detector must learn quickly.
func separableClips(n int, seed int64) []layout.Sample {
	rng := rand.New(rand.NewSource(seed))
	frame := geom.R(0, 0, 480, 480)
	out := make([]layout.Sample, n)
	for i := range out {
		hot := i%2 == 0
		pitch, width := 160, 48
		if hot {
			pitch, width = 64, 40
		}
		var rects []geom.Rect
		for x := rng.Intn(3) * 16; x+width < 480; x += pitch {
			rects = append(rects, geom.R(x, 0, x+width, 480))
		}
		out[i] = layout.Sample{Clip: geom.NewClip(frame, rects), Hotspot: hot}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Net.InChannels = 16 // mismatch with Feature.K = 32
	if err := bad.Validate(); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	bad = DefaultConfig()
	bad.Feature.Blocks = 8 // mismatch with Net.SpatialSize = 12
	if err := bad.Validate(); err == nil {
		t.Fatal("expected spatial mismatch error")
	}
	bad = DefaultConfig()
	bad.ValFraction = 1.0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected fraction error")
	}
	if _, err := NewDetector(bad); err == nil {
		t.Fatal("NewDetector must validate")
	}
}

func TestDetectorTrainsAndPredicts(t *testing.T) {
	cfg := smallConfig()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := separableClips(80, 1)
	core := samples[0].Clip.Frame
	report, err := det.Train(samples, core)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) != cfg.Biased.Rounds {
		t.Fatalf("rounds = %d", len(report.Rounds))
	}
	nVal := int(float64(len(samples)) * cfg.ValFraction)
	wantTrain := (len(samples) - nVal) * cfg.AugmentVariants
	if report.TrainSamples != wantTrain || report.ValSamples != nVal {
		t.Fatalf("split sizes %d/%d, want %d/%d (augmented)",
			report.TrainSamples, report.ValSamples, wantTrain, nVal)
	}
	res, err := det.Evaluate(separableClips(40, 2), core, "sep")
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("separable accuracy %.2f", res.Accuracy)
	}
	p, err := det.Predict(samples[0].Clip, core)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Fatalf("probability %v out of range", p)
	}
	ft, err := feature.ExtractTensor(samples[0].Clip, core, cfg.Feature)
	if err != nil {
		t.Fatal(err)
	}
	want, err := train.PredictProb(det.Network(), ft)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p) != math.Float64bits(want) {
		t.Fatalf("Predict %v, layered forward %v", p, want)
	}
}

func TestDetectorTrainErrors(t *testing.T) {
	det, err := NewDetector(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Train(nil, geom.R(0, 0, 480, 480)); err == nil {
		t.Fatal("expected empty-train error")
	}
	if _, err := det.Evaluate(nil, geom.R(0, 0, 480, 480), "x"); err == nil {
		t.Fatal("expected empty-eval error")
	}
}

func TestDetectorSaveLoad(t *testing.T) {
	cfg := smallConfig()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := separableClips(40, 3)
	core := samples[0].Clip.Frame
	if _, err := det.Train(samples, core); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:8] {
		p1, err := det.Predict(s.Clip, core)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := loaded.Predict(s.Clip, core)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatal("loaded detector predicts differently")
		}
	}
}

func TestLoadDetectorRejectsMismatchedConfig(t *testing.T) {
	cfg := smallConfig()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := DefaultConfig() // 32-channel network vs saved 8-channel one
	if _, err := LoadDetector(&buf, other); err == nil {
		t.Fatal("expected incompatibility error")
	}
}

func TestEvaluateTensorsShift(t *testing.T) {
	cfg := smallConfig()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := separableClips(40, 4)
	core := samples[0].Clip.Frame
	if _, err := det.Train(samples, core); err != nil {
		t.Fatal(err)
	}
	var tens []train.Sample
	for _, s := range separableClips(30, 5) {
		ft, err := feature.ExtractTensor(s.Clip, core, cfg.Feature)
		if err != nil {
			t.Fatal(err)
		}
		tens = append(tens, train.Sample{X: ft, Hotspot: s.Hotspot})
	}
	ev, err := train.NewEvaluator(det.Network(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := ev.EvalSet(tens, 0)
	if err != nil {
		t.Fatal(err)
	}
	mShift, err := ev.EvalSet(tens, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if mShift.Recall < m0.Recall || mShift.FalseAlarms < m0.FalseAlarms {
		t.Fatal("boundary shift must not reduce recall or FA")
	}
}
