package scan

import (
	"math"
	"testing"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// testNet builds a small (but real) paper-architecture network; untrained
// weights are fine — every parity statement is about deterministic
// probabilities, not about classification quality.
func testNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 32, SpatialSize: 12,
		Conv1Maps: 4, Conv2Maps: 4, FC1: 16,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testDie is a 2×1-cell city: 2400×1200 nm, a 24×12 block grid scanned by
// 13×1 windows — small enough for exhaustive per-window comparison. 13 is
// not a multiple of the four windows the row scorer batches, so the row
// ends in a one-window chunk (checkRaggedRow).
func testDie(t *testing.T) geom.Clip {
	t.Helper()
	die, err := layout.GenerateDie(layout.DieConfig{CellsX: 2, CellsY: 1, CellNM: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return die
}

// checkRaggedRow fails unless the scan's rows end in a partial chunk of
// the four windows scoreRow scores per call.
func checkRaggedRow(t *testing.T, s *Scanner) {
	t.Helper()
	if wnx, _ := s.Windows(); wnx%tensor.TileRows == 0 {
		t.Fatalf("test die rows hold %d windows, a multiple of %d; no partial chunk is covered", wnx, tensor.TileRows)
	}
}

func testConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return cfg
}

func mustScan(t *testing.T, cfg Config, net *nn.Network, die geom.Clip) (*Scanner, *Result) {
	t.Helper()
	s, err := New(cfg, net, die)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestScanMatchesPerClip is the acceptance gate: every scanned window's
// probability must be bit-identical to extracting that window as a
// standalone clip and scoring it through the per-clip path.
func TestScanMatchesPerClip(t *testing.T) {
	net := testNet(t)
	die := testDie(t)
	s, res := mustScan(t, testConfig(0), net, die)
	wnx, wny := s.Windows()
	if wnx != 13 || wny != 1 {
		t.Fatalf("window grid %dx%d, want 13x1", wnx, wny)
	}
	checkRaggedRow(t, s)
	fcfg := DefaultConfig().Feature
	for wy := 0; wy < wny; wy++ {
		for wx := 0; wx < wnx; wx++ {
			ft, err := feature.ExtractTensor(die, s.WindowRect(wx, wy), fcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := train.PredictProb(net, ft)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Probs[wy*wnx+wx]
			if got != want {
				t.Fatalf("window (%d,%d): scan %v, per-clip %v", wx, wy, got, want)
			}
		}
	}
}

// TestScanPaperNetMatchesPerClip runs the grid path at full size: the
// paper net (16-map conv1-1 and conv1-2, so each shared map is as deep as
// Table 1's) on a 2×2-cell die, 13×13 windows, every one bit-identical to
// the per-clip path.
func TestScanPaperNetMatchesPerClip(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	die, err := layout.GenerateDie(layout.DieConfig{CellsX: 2, CellsY: 2, CellNM: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, res := mustScan(t, testConfig(2), net, die)
	wnx, wny := s.Windows()
	if wnx != 13 || wny != 13 {
		t.Fatalf("window grid %dx%d, want 13x13", wnx, wny)
	}
	fcfg := DefaultConfig().Feature
	for wy := 0; wy < wny; wy++ {
		for wx := 0; wx < wnx; wx++ {
			ft, err := feature.ExtractTensor(die, s.WindowRect(wx, wy), fcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := train.PredictProb(net, ft)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Probs[wy*wnx+wx]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window (%d,%d): scan %v, per-clip %v", wx, wy, got, want)
			}
		}
	}
}

// TestScanWorkerInvariance scans the one-row test die and a 2×2-cell die
// (13 rows of 13 windows, so several workers score ragged rows at once)
// under several worker counts; every probability must match one worker's.
func TestScanWorkerInvariance(t *testing.T) {
	net := testNet(t)
	square, err := layout.GenerateDie(layout.DieConfig{CellsX: 2, CellsY: 2, CellNM: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, die := range []geom.Clip{testDie(t), square} {
		s, base := mustScan(t, testConfig(1), net, die)
		checkRaggedRow(t, s)
		for _, w := range []int{2, 4, 7} {
			_, res := mustScan(t, testConfig(w), net, die)
			for i := range base.Probs {
				if res.Probs[i] != base.Probs[i] {
					t.Fatalf("workers=%d: window %d prob %v, want %v", w, i, res.Probs[i], base.Probs[i])
				}
			}
			if len(res.Regions) != len(base.Regions) {
				t.Fatalf("workers=%d: %d regions, want %d", w, len(res.Regions), len(base.Regions))
			}
		}
	}
}

// TestScanPartialTiles forces ragged extract-pass tiles (24 blocks over
// 5-block tiles) and checks the cache — and with it every probability —
// is unchanged, covering halo gathers across tile seams and edge tiles.
func TestScanPartialTiles(t *testing.T) {
	net := testNet(t)
	die := testDie(t)
	_, base := mustScan(t, testConfig(3), net, die)
	small := testConfig(3)
	small.TileBlocks = 5
	_, res := mustScan(t, small, net, die)
	for i := range base.Probs {
		if res.Probs[i] != base.Probs[i] {
			t.Fatalf("tileBlocks=5: window %d prob %v, want %v", i, res.Probs[i], base.Probs[i])
		}
	}
}

func TestScanStatsAndRegions(t *testing.T) {
	net := testNet(t)
	die := testDie(t)

	allHot := testConfig(0)
	allHot.Shift = 0.5 // boundary at 0: every window is hot
	s, res := mustScan(t, allHot, net, die)
	if res.HotWindows() != 13 {
		t.Fatalf("%d hot windows with shift 0.5, want all 13", res.HotWindows())
	}
	if len(res.Regions) != 1 {
		t.Fatalf("%d regions from a fully hot die, want 1", len(res.Regions))
	}
	r := res.Regions[0]
	if r.Windows != 13 || r.Rect != die.Frame {
		t.Fatalf("region %+v, want 13 windows spanning %v", r, die.Frame)
	}
	nbx, nby := s.Blocks()
	st := res.Stats
	if st.BlockDCTs != nbx*nby {
		t.Fatalf("BlockDCTs %d, want one per block (%d)", st.BlockDCTs, nbx*nby)
	}
	if st.BlockGathers != 13*144 {
		t.Fatalf("BlockGathers %d, want 13*144", st.BlockGathers)
	}
	wantHit := float64(st.BlockGathers) / float64(st.BlockGathers+int64(st.BlockDCTs))
	if st.CacheHitRate != wantHit {
		t.Fatalf("CacheHitRate %v, want %v", st.CacheHitRate, wantHit)
	}

	allCold := testConfig(0)
	allCold.Shift = -0.5 // boundary at 1: nothing is hot
	_, res = mustScan(t, allCold, net, die)
	if res.HotWindows() != 0 || len(res.Regions) != 0 {
		t.Fatalf("shift -0.5: %d hot windows, %d regions, want none", res.HotWindows(), len(res.Regions))
	}
}

func TestNewErrors(t *testing.T) {
	net := testNet(t)
	die := testDie(t)
	bad := testConfig(0)
	bad.WindowNM = 0
	if _, err := New(bad, net, die); err == nil {
		t.Error("expected error for zero window")
	}
	uneven := geom.Clip{Frame: geom.R(0, 0, 2450, 1200)}
	if _, err := New(testConfig(0), net, uneven); err == nil {
		t.Error("expected error for die not divisible into blocks")
	}
	tiny := geom.Clip{Frame: geom.R(0, 0, 600, 600)}
	if _, err := New(testConfig(0), net, tiny); err == nil {
		t.Error("expected error for die smaller than one window")
	}
	if _, err := New(testConfig(0), net, geom.Clip{}); err == nil {
		t.Error("expected error for empty die")
	}
}
