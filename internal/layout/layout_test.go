package layout

import (
	"math/rand"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/litho"
	"hotspot/internal/raster"
)

// testStyle is a reduced-size style for fast tests: smaller window, higher
// risk so both classes appear quickly.
func testStyle() Style {
	return Style{
		Name:   "test",
		ClipNM: 600, HaloNM: 160, GridNM: 4,
		WidthRisk: 48, WidthSafe: 68, WidthMax: 104,
		SpaceRisk: 44, SpaceSafe: 68, SpaceMax: 136,
		RiskProb:  0.25,
		BreakProb: 0.4, JogProb: 0.2, StubProb: 0.25, ViaProb: 0.2,
	}
}

func TestAllStylesValidate(t *testing.T) {
	for _, st := range AllStyles() {
		if err := st.Validate(); err != nil {
			t.Errorf("style %s invalid: %v", st.Name, err)
		}
	}
	if err := testStyle().Validate(); err != nil {
		t.Errorf("test style invalid: %v", err)
	}
}

func TestStyleValidateRejectsBad(t *testing.T) {
	mutations := []func(*Style){
		func(s *Style) { s.ClipNM = 0 },
		func(s *Style) { s.GridNM = 0 },
		func(s *Style) { s.HaloNM = -1 },
		func(s *Style) { s.WidthRisk = 0 },
		func(s *Style) { s.WidthSafe = s.WidthRisk - 4 },
		func(s *Style) { s.WidthMax = s.WidthSafe - 4 },
		func(s *Style) { s.SpaceRisk = -4 },
		func(s *Style) { s.SpaceMax = 0 },
		func(s *Style) { s.RiskProb = 1.5 },
		func(s *Style) { s.BreakProb = -0.1 },
	}
	for i, m := range mutations {
		st := testStyle()
		m(&st)
		if err := st.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestStyleByName(t *testing.T) {
	for _, name := range []string{"ICCAD", "Industry1", "Industry2", "Industry3", "iccad", "industry3"} {
		if _, err := StyleByName(name); err != nil {
			t.Errorf("StyleByName(%q): %v", name, err)
		}
	}
	if _, err := StyleByName("nope"); err == nil {
		t.Error("expected error for unknown style")
	}
}

func TestWindowAndCore(t *testing.T) {
	st := testStyle()
	if st.WindowNM() != 600+2*160 {
		t.Fatalf("WindowNM = %d", st.WindowNM())
	}
	core := st.CoreRect()
	if core != geom.R(160, 160, 760, 760) {
		t.Fatalf("CoreRect = %v", core)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	st := testStyle()
	a := Generate(st, rand.New(rand.NewSource(7)))
	b := Generate(st, rand.New(rand.NewSource(7)))
	if len(a.Rects) != len(b.Rects) {
		t.Fatalf("rect counts differ: %d vs %d", len(a.Rects), len(b.Rects))
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("rect %d differs: %v vs %v", i, a.Rects[i], b.Rects[i])
		}
	}
	c := Generate(st, rand.New(rand.NewSource(8)))
	if len(a.Rects) == len(c.Rects) {
		same := true
		for i := range a.Rects {
			if a.Rects[i] != c.Rects[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical clips")
		}
	}
}

func TestGenerateGeometryInWindow(t *testing.T) {
	st := testStyle()
	for seed := int64(0); seed < 20; seed++ {
		clip := Generate(st, rand.New(rand.NewSource(seed)))
		if clip.Frame.W() != st.WindowNM() {
			t.Fatalf("frame width %d", clip.Frame.W())
		}
		for _, r := range clip.Rects {
			if !clip.Frame.ContainsRect(r) {
				t.Fatalf("seed %d: rect %v escapes frame", seed, r)
			}
			if r.Empty() {
				t.Fatalf("seed %d: empty rect emitted", seed)
			}
		}
	}
}

func TestGenerateOnGrid(t *testing.T) {
	st := testStyle()
	for seed := int64(0); seed < 10; seed++ {
		clip := Generate(st, rand.New(rand.NewSource(seed)))
		for _, r := range clip.Rects {
			// Frame-clipped edges may sit on the window boundary; interior
			// edges must be on the manufacturing grid.
			for _, v := range []int{r.X0, r.Y0, r.X1, r.Y1} {
				if v%st.GridNM != 0 && v != clip.Frame.X1 {
					t.Fatalf("seed %d: off-grid coordinate %d in %v", seed, v, r)
				}
			}
		}
	}
}

func TestGenerateDensityReasonable(t *testing.T) {
	st := testStyle()
	low, high := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		clip := Generate(st, rand.New(rand.NewSource(seed)))
		d := clip.Density()
		if d < 0.10 {
			low++
		}
		if d > 0.75 {
			high++
		}
	}
	if low > 3 || high > 3 {
		t.Fatalf("densities out of expected range too often: %d low, %d high", low, high)
	}
}

func TestLabelerProducesBothClasses(t *testing.T) {
	st := testStyle()
	labeler, err := NewLabeler(st, litho.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	for seed := int64(0); seed < 40 && (hot == 0 || cold == 0); seed++ {
		clip := Generate(st, rand.New(rand.NewSource(seed)))
		rep, err := labeler.Label(clip)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hotspot {
			hot++
		} else {
			cold++
		}
	}
	if hot == 0 || cold == 0 {
		t.Fatalf("labeler produced one-sided labels: %d hot, %d cold", hot, cold)
	}
}

func TestNewLabelerRejectsBadInputs(t *testing.T) {
	bad := testStyle()
	bad.GridNM = 0
	if _, err := NewLabeler(bad, litho.DefaultConfig()); err == nil {
		t.Fatal("expected style validation error")
	}
	cfg := litho.DefaultConfig()
	cfg.ResNM = 0
	if _, err := NewLabeler(testStyle(), cfg); err == nil {
		t.Fatal("expected litho validation error")
	}
}

func TestPaperCounts(t *testing.T) {
	c, err := PaperCounts("ICCAD")
	if err != nil {
		t.Fatal(err)
	}
	if c.TrainHS != 1204 || c.TrainNHS != 17096 || c.TestHS != 2524 || c.TestNHS != 13503 {
		t.Fatalf("ICCAD counts wrong: %+v", c)
	}
	if c.Total() != 1204+17096+2524+13503 {
		t.Fatalf("Total = %d", c.Total())
	}
	for _, n := range []string{"Industry1", "Industry2", "Industry3"} {
		if _, err := PaperCounts(n); err != nil {
			t.Errorf("PaperCounts(%q): %v", n, err)
		}
	}
	if _, err := PaperCounts("bogus"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestCountsScale(t *testing.T) {
	c := Counts{TrainHS: 1000, TrainNHS: 2000, TestHS: 500, TestNHS: 100}
	s := c.Scale(0.01)
	if s.TrainHS != 10 || s.TrainNHS != 20 || s.TestHS != 5 || s.TestNHS != 2 {
		t.Fatalf("scaled counts: %+v", s)
	}
	// Minimum of 2 per bucket.
	tiny := Counts{TrainHS: 1, TrainNHS: 1, TestHS: 1, TestNHS: 1}.Scale(0.001)
	if tiny.TrainHS != 2 || tiny.TestNHS != 2 {
		t.Fatalf("minimum not enforced: %+v", tiny)
	}
}

func TestBuildSuiteComposition(t *testing.T) {
	st := testStyle()
	counts := Counts{TrainHS: 3, TrainNHS: 6, TestHS: 2, TestNHS: 4}
	suite, err := BuildSuite(st, counts, BuildOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Train) != 9 || len(suite.Test) != 6 {
		t.Fatalf("suite sizes: %d train, %d test", len(suite.Train), len(suite.Test))
	}
	trainHS, testHS := 0, 0
	for _, s := range suite.Train {
		if s.Hotspot {
			trainHS++
		}
	}
	for _, s := range suite.Test {
		if s.Hotspot {
			testHS++
		}
	}
	if trainHS != 3 || testHS != 2 {
		t.Fatalf("hotspot composition: train %d, test %d", trainHS, testHS)
	}
}

func TestBuildSuiteDeterministicAcrossWorkers(t *testing.T) {
	st := testStyle()
	counts := Counts{TrainHS: 2, TrainNHS: 4, TestHS: 2, TestNHS: 2}
	a, err := BuildSuite(st, counts, BuildOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSuite(st, counts, BuildOptions{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Train) != len(b.Train) {
		t.Fatal("train sizes differ across worker counts")
	}
	for i := range a.Train {
		if a.Train[i].Hotspot != b.Train[i].Hotspot ||
			len(a.Train[i].Clip.Rects) != len(b.Train[i].Clip.Rects) {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}

func TestBuildSuiteErrors(t *testing.T) {
	st := testStyle()
	if _, err := BuildSuite(st, Counts{}, BuildOptions{Seed: 1}); err == nil {
		t.Fatal("expected empty-composition error")
	}
	bad := st
	bad.GridNM = 0
	if _, err := BuildSuite(bad, Counts{TrainHS: 1, TrainNHS: 1, TestHS: 1, TestNHS: 1}, BuildOptions{Seed: 1}); err == nil {
		t.Fatal("expected style error")
	}
	// Impossible composition within a tiny attempt budget.
	if _, err := BuildSuite(st, Counts{TrainHS: 100000, TrainNHS: 1, TestHS: 1, TestNHS: 1},
		BuildOptions{Seed: 1, MaxAttempts: 8}); err == nil {
		t.Fatal("expected attempt-budget error")
	}
}

func TestHotspotRateSmoke(t *testing.T) {
	r, err := HotspotRate(testStyle(), 20, 3, litho.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 || r > 1 {
		t.Fatalf("rate %v out of range", r)
	}
}

func TestGeneratedClipsRespectDRCFloor(t *testing.T) {
	// The generator's contract: drawn widths never fall below the
	// risky-band floor (36 nm here), so a morphological opening just under
	// that floor, radius ⌊(floor−1)/2⌋ px, keeps every drawn pixel of
	// every clip, risky features included.
	st := testStyle()
	st.RiskProb = 0.4 // plenty of risky features
	res := 4
	floorPx := st.WidthRisk/res - 1 // just under the 36 nm floor
	r := (floorPx - 1) / 2
	for seed := int64(0); seed < 8; seed++ {
		clip := Generate(st, rand.New(rand.NewSource(seed)))
		im, err := raster.Rasterize(clip, res)
		if err != nil {
			t.Fatal(err)
		}
		drawn := im.Threshold(0.5)
		opened := litho.Dilate(litho.Erode(drawn, r), r)
		for y := 8; y < im.H-8; y++ {
			for x := 8; x < im.W-8; x++ {
				if i := y*im.W + x; drawn.Pix[i] >= 0.5 && opened.Pix[i] < 0.5 {
					t.Fatalf("seed %d: drawn width below the generator floor at pixel (%d,%d)", seed, x, y)
				}
			}
		}
	}
}
