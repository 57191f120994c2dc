package dataset

import (
	"bytes"
	"math/rand"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

func testStyle() layout.Style {
	return layout.Style{
		Name:   "dstest",
		ClipNM: 480, HaloNM: 96, GridNM: 8,
		WidthRisk: 44, WidthSafe: 72, WidthMax: 104,
		SpaceRisk: 44, SpaceSafe: 72, SpaceMax: 136,
		RiskProb:  0.2,
		BreakProb: 0.3, JogProb: 0.2, StubProb: 0.2, ViaProb: 0.2,
	}
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	style := testStyle()
	var samples []layout.Sample
	for seed := int64(0); seed < 12; seed++ {
		clip := layout.Generate(style, rand.New(rand.NewSource(seed)))
		samples = append(samples, layout.Sample{Clip: clip, Hotspot: seed%3 == 0})
	}
	suite := &layout.Suite{Name: style.Name, Train: samples[:8], Test: samples[8:]}
	return FromSuite(suite, style)
}

func TestFromSuiteAndCore(t *testing.T) {
	ds := testDataset(t)
	if ds.Name != "dstest" || len(ds.Train) != 8 || len(ds.Test) != 4 {
		t.Fatalf("dataset shape wrong: %s %d/%d", ds.Name, len(ds.Train), len(ds.Test))
	}
	if ds.Core() != geom.R(96, 96, 576, 576) {
		t.Fatalf("Core = %v", ds.Core())
	}
}

func TestStats(t *testing.T) {
	ds := testDataset(t)
	hs, nhs := Stats(ds.Train)
	if hs+nhs != len(ds.Train) {
		t.Fatal("stats do not sum")
	}
	if hs != 3 { // seeds 0, 3, 6 of the first 8
		t.Fatalf("hs = %d, want 3", hs)
	}
	if h0, n0 := Stats(nil); h0 != 0 || n0 != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || len(got.Train) != len(ds.Train) || len(got.Test) != len(ds.Test) {
		t.Fatal("roundtrip lost structure")
	}
	for i := range ds.Train {
		if got.Train[i].Hotspot != ds.Train[i].Hotspot ||
			len(got.Train[i].Clip.Rects) != len(ds.Train[i].Clip.Rects) {
			t.Fatalf("train sample %d differs", i)
		}
	}
	if got.Style.WidthRisk != ds.Style.WidthRisk {
		t.Fatal("style lost in roundtrip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestTensorSamples(t *testing.T) {
	ds := testDataset(t)
	cfg := feature.TensorConfig{Blocks: 12, K: 16, ResNM: 4, Normalize: true}
	ts, err := TensorSamples(ds.Train, ds.Core(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(ds.Train) {
		t.Fatalf("got %d tensor samples", len(ts))
	}
	for i, s := range ts {
		sh := s.X.Shape()
		if sh[0] != 16 || sh[1] != 12 || sh[2] != 12 {
			t.Fatalf("sample %d shape %v", i, sh)
		}
		if s.Hotspot != ds.Train[i].Hotspot {
			t.Fatal("label mismatch")
		}
	}
	// Invalid config surfaces the error with context.
	bad := cfg
	bad.ResNM = 7
	if _, err := TensorSamples(ds.Train, ds.Core(), bad, 0); err == nil {
		t.Fatal("expected extraction error")
	}
}

func TestDensityMatrix(t *testing.T) {
	ds := testDataset(t)
	cfg := feature.DensityConfig{Grid: 12, ResNM: 4}
	X, y, err := DensityMatrix(ds.Train, ds.Core(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != len(ds.Train) || len(y) != len(ds.Train) {
		t.Fatal("matrix shape wrong")
	}
	if len(X[0]) != 144 {
		t.Fatalf("density dim %d", len(X[0]))
	}
	bad := cfg
	bad.Grid = 7
	if _, _, err := DensityMatrix(ds.Train, ds.Core(), bad, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestCCSMatrix(t *testing.T) {
	ds := testDataset(t)
	cfg := feature.DefaultCCSConfig()
	X, y, err := CCSMatrix(ds.Train, ds.Core(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != len(ds.Train) || len(y) != len(ds.Train) {
		t.Fatal("matrix shape wrong")
	}
	if len(X[0]) != cfg.Dim() {
		t.Fatalf("ccs dim %d, want %d", len(X[0]), cfg.Dim())
	}
}

func TestAugmentedTensorSamples(t *testing.T) {
	ds := testDataset(t)
	cfg := feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
	aug, err := AugmentedTensorSamples(ds.Train, ds.Core(), cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(aug) != 8*len(ds.Train) {
		t.Fatalf("augmented count %d, want %d", len(aug), 8*len(ds.Train))
	}
	// Labels repeat per variant block.
	for i, s := range aug {
		if s.Hotspot != ds.Train[i/8].Hotspot {
			t.Fatal("augmented label mismatch")
		}
	}
	// Variant 0 equals the plain extraction.
	plain, err := TensorSamples(ds.Train, ds.Core(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		a, b := plain[i].X.Data(), aug[i*8].X.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("identity variant differs from plain extraction")
			}
		}
	}
	// The DC channel's total mass is symmetry invariant.
	for i := range plain {
		base := channelSum(aug[i*8].X.Data(), 16)
		for v := 1; v < 8; v++ {
			if d := channelSum(aug[i*8+v].X.Data(), 16) - base; d > 1e-9 || d < -1e-9 {
				t.Fatalf("variant %d changed total density", v)
			}
		}
	}
	if _, err := AugmentedTensorSamples(ds.Train, ds.Core(), cfg, 0, 0); err == nil {
		t.Fatal("expected variants range error")
	}
	if _, err := AugmentedTensorSamples(ds.Train, ds.Core(), cfg, 9, 0); err == nil {
		t.Fatal("expected variants range error")
	}
}

func channelSum(data []float64, n int) float64 {
	s := 0.0
	for _, v := range data[:n] {
		s += v
	}
	return s
}
