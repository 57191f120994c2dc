package litho

import (
	"math"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/raster"
)

func mustSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rasterizeClip renders a clip with the default config's resolution.
func rasterizeClip(t *testing.T, c geom.Clip) *raster.Image {
	t.Helper()
	im, err := raster.Rasterize(c, DefaultConfig().ResNM)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultConfig()
	mutate := []struct {
		name string
		f    func(*Config)
	}{
		{"no kernels", func(c *Config) { c.Optics.Kernels = nil }},
		{"bad sigma", func(c *Config) { c.Optics.Kernels[0].SigmaNM = 0 }},
		{"bad weight", func(c *Config) { c.Optics.Kernels[0].Weight = -1 }},
		{"threshold 0", func(c *Config) { c.Resist.Threshold = 0 }},
		{"threshold 1", func(c *Config) { c.Resist.Threshold = 1 }},
		{"bad res", func(c *Config) { c.ResNM = 0 }},
		{"no corners", func(c *Config) { c.Corners = nil }},
		{"bad dose", func(c *Config) { c.Corners[0].Dose = 0 }},
		{"negative defocus", func(c *Config) { c.Corners[0].Defocus = -1 }},
		{"negative tolerance", func(c *Config) { c.EPEToleranceNM = -1 }},
	}
	for _, m := range mutate {
		cfg := base
		cfg.Optics.Kernels = append([]Kernel(nil), base.Optics.Kernels...)
		cfg.Corners = append([]Condition(nil), base.Corners...)
		m.f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
		if _, err := NewSimulator(cfg); err == nil {
			t.Errorf("%s: NewSimulator should fail", m.name)
		}
	}
}

func TestAerialEmptyMaskIsDark(t *testing.T) {
	s := mustSim(t)
	mask := raster.NewImage(64, 64)
	a := s.Aerial(mask, 0)
	if a.Sum() != 0 {
		t.Fatalf("empty mask aerial sum = %v, want 0", a.Sum())
	}
}

func TestAerialClearFieldIsUnity(t *testing.T) {
	s := mustSim(t)
	mask := raster.NewImage(128, 128)
	for i := range mask.Pix {
		mask.Pix[i] = 1
	}
	a := s.Aerial(mask, 0)
	// Far from the boundary, intensity must be ~1 (weights normalized).
	center := a.At(64, 64)
	if math.Abs(center-1) > 1e-6 {
		t.Fatalf("clear-field centre intensity = %v, want 1", center)
	}
}

func TestAerialEdgeIntensity(t *testing.T) {
	// For a straight isolated edge, the field at the edge is 0.5, so the
	// intensity is 0.25 — the resist threshold, placing the contour on the
	// drawn edge by construction.
	s := mustSim(t)
	w, h := 128, 64
	mask := raster.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < 64; x++ {
			mask.Set(x, y, 1)
		}
	}
	a := s.Aerial(mask, 0)
	// The half-plane boundary sits between px 63 and 64; sample the mean of
	// the two pixels bracketing it.
	edge := (a.At(63, 32) + a.At(64, 32)) / 2
	if math.Abs(edge-0.25) > 0.02 {
		t.Fatalf("edge intensity = %v, want ~0.25", edge)
	}
}

func TestAerialMonotoneInMask(t *testing.T) {
	// Adding geometry can only increase intensity everywhere (all-positive
	// kernels).
	s := mustSim(t)
	base := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 512, 512), []geom.Rect{
		geom.R(100, 100, 180, 400),
	}))
	more := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 512, 512), []geom.Rect{
		geom.R(100, 100, 180, 400),
		geom.R(300, 100, 380, 400),
	}))
	a1 := s.Aerial(base, 0)
	a2 := s.Aerial(more, 0)
	for i := range a1.Pix {
		if a2.Pix[i] < a1.Pix[i]-1e-12 {
			t.Fatal("aerial intensity decreased when geometry was added")
		}
	}
}

func TestDefocusBlursImage(t *testing.T) {
	// Defocus must lower the peak intensity of a narrow line.
	s := mustSim(t)
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 512, 512), []geom.Rect{
		geom.R(224, 64, 288, 448), // 64 nm line
	}))
	nom := s.Aerial(mask, 0)
	def := s.Aerial(mask, 1)
	cx, cy := 256/DefaultConfig().ResNM, 256/DefaultConfig().ResNM
	if def.At(cx, cy) >= nom.At(cx, cy) {
		t.Fatalf("defocus did not lower line-centre intensity: %v >= %v", def.At(cx, cy), nom.At(cx, cy))
	}
}

func TestPrintDoseMonotone(t *testing.T) {
	s := mustSim(t)
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 512, 512), []geom.Rect{
		geom.R(200, 100, 280, 400),
	}))
	a := s.Aerial(mask, 0)
	lo := s.Print(a, 0.9)
	hi := s.Print(a, 1.1)
	for i := range lo.Pix {
		if lo.Pix[i] > hi.Pix[i] {
			t.Fatal("higher dose must print a superset of pixels")
		}
	}
}

func TestWideIsolatedLineIsClean(t *testing.T) {
	s := mustSim(t)
	// 120 nm line in a 1024 nm window: prints robustly at all corners.
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 1024, 1024), []geom.Rect{
		geom.R(452, 128, 572, 896),
	}))
	region := Region{X0: 32, Y0: 32, X1: mask.W - 32, Y1: mask.H - 32}
	rep, err := s.Analyze(mask, region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hotspot {
		for _, c := range rep.Corners {
			t.Logf("corner %+v: %v (%d violations)", c.Condition, c.Defect, c.Violations)
		}
		t.Fatal("wide isolated line flagged as hotspot")
	}
	if rep.WindowFraction != 1 {
		t.Fatalf("WindowFraction = %v, want 1", rep.WindowFraction)
	}
}

func TestSubResolutionLineIsOpenDefect(t *testing.T) {
	s := mustSim(t)
	// 24 nm line: far below the printable width, must fail open at nominal.
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 1024, 1024), []geom.Rect{
		geom.R(500, 128, 524, 896),
	}))
	region := Region{X0: 16, Y0: 16, X1: mask.W - 16, Y1: mask.H - 16}
	rep, err := s.Analyze(mask, region)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Hotspot {
		t.Fatal("sub-resolution line not flagged as hotspot")
	}
	if rep.Corners[0].Defect != DefectOpen {
		t.Fatalf("nominal corner defect = %v, want open", rep.Corners[0].Defect)
	}
}

func TestTightSpaceBridges(t *testing.T) {
	s := mustSim(t)
	// Two 120 nm lines separated by a 24 nm gap: the gap fills in.
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 1024, 1024), []geom.Rect{
		geom.R(336, 128, 456, 896),
		geom.R(480, 128, 600, 896),
	}))
	region := Region{X0: 16, Y0: 16, X1: mask.W - 16, Y1: mask.H - 16}
	rep, err := s.Analyze(mask, region)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Hotspot {
		t.Fatal("tight space not flagged as hotspot")
	}
	sawBridge := false
	for _, c := range rep.Corners {
		if c.Defect == DefectBridge {
			sawBridge = true
		}
	}
	if !sawBridge {
		t.Fatal("expected a bridge defect at some corner")
	}
}

func TestMarginalLineFailsOnlyOffNominal(t *testing.T) {
	s := mustSim(t)
	// A width in the marginal band: prints at nominal, fails under
	// defocus/dose stress — the canonical process-window hotspot.
	for width := 44; width <= 72; width += 4 {
		mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 1024, 1024), []geom.Rect{
			geom.R(512-width/2, 128, 512+width/2, 896),
		}))
		region := Region{X0: 16, Y0: 16, X1: mask.W - 16, Y1: mask.H - 16}
		rep, err := s.Analyze(mask, region)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corners[0].Defect == DefectNone && rep.Hotspot {
			// Found the marginal regime; that's all we assert.
			return
		}
	}
	t.Fatal("no width in 44..72 nm printed at nominal but failed at a corner")
}

func TestAnalyzeRegionValidation(t *testing.T) {
	s := mustSim(t)
	mask := raster.NewImage(32, 32)
	bad := []Region{
		{X0: -1, Y0: 0, X1: 10, Y1: 10},
		{X0: 0, Y0: 0, X1: 33, Y1: 10},
		{X0: 10, Y0: 0, X1: 5, Y1: 10},
		{X0: 0, Y0: 5, X1: 10, Y1: 5},
	}
	for _, r := range bad {
		if _, err := s.Analyze(mask, r); err == nil {
			t.Errorf("region %+v: expected error", r)
		}
	}
}

func TestDefectKindString(t *testing.T) {
	if DefectNone.String() != "none" || DefectOpen.String() != "open" || DefectBridge.String() != "bridge" {
		t.Fatal("DefectKind strings wrong")
	}
	if DefectKind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestAerialFFTAgreesWithSeparable(t *testing.T) {
	s := mustSim(t)
	mask := rasterizeClip(t, geom.NewClip(geom.R(0, 0, 512, 512), []geom.Rect{
		geom.R(96, 64, 176, 448),
		geom.R(256, 128, 336, 384),
		geom.R(400, 200, 472, 272),
	}))
	for _, defocus := range []float64{0, 1} {
		fast := s.Aerial(mask, defocus)
		slow, err := s.AerialFFT(mask, defocus)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Pix {
			if math.Abs(fast.Pix[i]-slow.Pix[i]) > 1e-6 {
				t.Fatalf("defocus %v: separable and FFT aerials differ at %d: %v vs %v",
					defocus, i, fast.Pix[i], slow.Pix[i])
			}
		}
	}
}

func TestSimulateKernelsErrors(t *testing.T) {
	s := mustSim(t)
	mask := raster.NewImage(16, 16)
	if _, err := s.SimulateKernels(mask, nil, nil); err == nil {
		t.Fatal("expected empty kernels error")
	}
	k := raster.NewImage(3, 3)
	if _, err := s.SimulateKernels(mask, []*raster.Image{k}, []float64{1, 2}); err == nil {
		t.Fatal("expected weight mismatch error")
	}
}
