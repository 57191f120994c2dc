package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hotspot/internal/feature"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/raster"
	"hotspot/internal/train"
)

// Fig1Result summarizes the feature tensor generation walk-through.
type Fig1Result struct {
	ClipNM        int
	Blocks        int
	K             int
	BlockCoeffs   int
	Compression   float64
	RelL2Error    float64
	EnergyKeptPct float64
}

// Fig1 reproduces Figure 1: generate a representative clip, encode it into
// a feature tensor, decode it back and measure the information kept.
func Fig1(opts Options) (Fig1Result, string, error) {
	opts = opts.normalize()
	style := layout.StyleICCAD()
	rng := rand.New(rand.NewSource(opts.Seed))
	clip := layout.Generate(style, rng)
	cor := style.CoreRect()

	cfg := feature.TensorConfig{Blocks: 12, K: 32, ResNM: 4}
	ft, err := feature.ExtractTensor(clip, cor, cfg)
	if err != nil {
		return Fig1Result{}, "", err
	}
	im, err := raster.Rasterize(clip, cfg.ResNM)
	if err != nil {
		return Fig1Result{}, "", err
	}
	x0 := cor.X0 / cfg.ResNM
	side := cor.W() / cfg.ResNM
	coreIm, err := im.SubImage(x0, x0, x0+side, x0+side)
	if err != nil {
		return Fig1Result{}, "", err
	}
	blockPx := coreIm.W / cfg.Blocks
	rec, err := feature.DecodeTensor(ft, blockPx, false)
	if err != nil {
		return Fig1Result{}, "", err
	}
	var errE, sigE float64
	for i := range coreIm.Pix {
		d := rec.Pix[i] - coreIm.Pix[i]
		errE += float64(d * d)
		sigE += float64(coreIm.Pix[i] * coreIm.Pix[i])
	}
	res := Fig1Result{
		ClipNM:        cor.W(),
		Blocks:        cfg.Blocks,
		K:             cfg.K,
		BlockCoeffs:   blockPx * blockPx,
		Compression:   float64(coreIm.W*coreIm.H) / float64(ft.Len()),
		RelL2Error:    math.Sqrt(errE / sigE),
		EnergyKeptPct: 100 * (1 - errE/sigE),
	}
	var b strings.Builder
	b.WriteString("Figure 1: Feature Tensor Generation (reproduced)\n")
	fmt.Fprintf(&b, "clip %d nm -> %dx%d blocks, k=%d of %d coefficients per block\n",
		res.ClipNM, res.Blocks, res.Blocks, res.K, res.BlockCoeffs)
	fmt.Fprintf(&b, "compression %.1fx, reconstruction rel. L2 error %.1f%% (energy kept %.1f%%)\n",
		res.Compression, 100*res.RelL2Error, res.EnergyKeptPct)
	return res, b.String(), nil
}

// Fig2 renders the CNN structure (paper Figure 2): the layer stack with
// stage grouping.
func Fig2() (string, error) {
	cfg := nn.DefaultPaperNetConfig()
	net, err := nn.NewPaperNet(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: CNN structure (reproduced)\n")
	b.WriteString("feature tensor -> [conv stage 1] -> [conv stage 2] -> FC-250 -> FC-2 -> softmax\n")
	shape := []int{cfg.InChannels, cfg.SpatialSize, cfg.SpatialSize}
	for _, l := range net.Layers() {
		shape, err = l.OutputShape(shape)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %-12s -> %v\n", l.Name(), shape)
	}
	return b.String(), nil
}

// Fig3Result carries the two training curves (validation accuracy vs
// elapsed seconds) of the SGD vs MGD comparison.
type Fig3Result struct {
	SGD train.History
	MGD train.History
}

// Fig3 reproduces Figure 3 on the ICCAD suite: the same network trained
// with SGD (batch 1) and MGD (minibatch), with the paper's 10× rate ratio
// (averaged minibatch gradients are smaller than single-instance
// gradients). The paper's x-axis is wall-clock on a GPU, where one MGD
// minibatch update costs the same as one SGD update because the batch runs
// in parallel; on one CPU core that equivalence is modelled by giving both
// optimizers the same number of parameter updates and plotting accuracy
// per update.
func Fig3(opts Options) (Fig3Result, string, error) {
	opts = opts.normalize()
	ds, err := LoadSuite("ICCAD", opts)
	if err != nil {
		return Fig3Result{}, "", err
	}
	cfg := DetectorConfig(opts)
	trainT, _, err := TensorSets(ds, cfg)
	if err != nil {
		return Fig3Result{}, "", err
	}
	trainSet, valSet, err := train.Split(trainT, cfg.ValFraction, cfg.Seed)
	if err != nil {
		return Fig3Result{}, "", err
	}

	base := cfg.Biased.Initial
	base.Patience = 0 // run the full budget so the curves are comparable

	mgdCfg := base
	sgdCfg := base
	sgdCfg.BatchSize = 1
	sgdCfg.LearningRate = base.LearningRate / 10

	netM, err := nn.NewPaperNet(cfg.Net)
	if err != nil {
		return Fig3Result{}, "", err
	}
	mgdHist, err := train.MGD(netM, trainSet, valSet, mgdCfg)
	if err != nil {
		return Fig3Result{}, "", err
	}
	netS, err := nn.NewPaperNet(cfg.Net)
	if err != nil {
		return Fig3Result{}, "", err
	}
	sgdHist, err := train.MGD(netS, trainSet, valSet, sgdCfg)
	if err != nil {
		return Fig3Result{}, "", err
	}
	res := Fig3Result{SGD: sgdHist, MGD: mgdHist}
	return res, FormatFig3(res), nil
}

// FormatFig3 renders the two curves as an aligned series (parameter
// updates, validation accuracy), the data behind the paper's Figure 3
// plot. Updates stand in for GPU wall-clock: on parallel hardware one
// minibatch update and one single-sample update take the same time.
func FormatFig3(r Fig3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3: SGD vs MGD, validation accuracy per parameter update (reproduced;\n")
	b.WriteString("updates model GPU wall-clock: a parallel minibatch update costs one SGD update)\n")
	b.WriteString("series: MGD\n")
	for _, cp := range r.MGD {
		fmt.Fprintf(&b, "  update %5d  acc=%5.1f%%\n", cp.Iter, 100*cp.ValAccuracy)
	}
	b.WriteString("series: SGD\n")
	for _, cp := range r.SGD {
		fmt.Fprintf(&b, "  update %5d  acc=%5.1f%%\n", cp.Iter, 100*cp.ValAccuracy)
	}
	mgdT, sgdT := updatesToSustained(r.MGD, 0.85), updatesToSustained(r.SGD, 0.85)
	fmt.Fprintf(&b, "updates to sustained 85%% validation accuracy: MGD %s, SGD %s\n",
		fmtReach(mgdT), fmtReach(sgdT))
	return b.String()
}

// updatesToSustained returns the earliest checkpoint from which validation
// accuracy never again drops below target — robust against single lucky
// spikes on noisy single-sample (SGD) curves.
func updatesToSustained(h train.History, target float64) int {
	best := -1
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].ValAccuracy >= target {
			best = h[i].Iter
		} else {
			break
		}
	}
	return best
}

func fmtReach(n int) string {
	if n < 0 {
		return "not reached"
	}
	return fmt.Sprintf("%d", n)
}

// Fig4Point is one (accuracy, false alarm) operating point.
type Fig4Point struct {
	Label    string
	Accuracy float64
	FA       int
}

// Fig4Result carries the biased-learning and boundary-shifting trade-off
// curves on the test set.
type Fig4Result struct {
	Bias  []Fig4Point
	Shift []Fig4Point
}

// Fig4 reproduces Figure 4 on Industry3: train the initial model (ε=0),
// fine-tune with ε = 0.1, 0.2, 0.3 (biased learning), and match each
// fine-tuned model's test accuracy by shifting the initial model's decision
// boundary; biased learning should reach the same accuracy with fewer
// false alarms.
func Fig4(opts Options) (Fig4Result, string, error) {
	opts = opts.normalize()
	ds, err := LoadSuite("Industry3", opts)
	if err != nil {
		return Fig4Result{}, "", err
	}
	cfg := DetectorConfig(opts)
	trainT, testT, err := TensorSets(ds, cfg)
	if err != nil {
		return Fig4Result{}, "", err
	}
	trainSet, valSet, err := train.Split(trainT, cfg.ValFraction, cfg.Seed)
	if err != nil {
		return Fig4Result{}, "", err
	}

	// Initial model (ε = 0).
	net, err := nn.NewPaperNet(cfg.Net)
	if err != nil {
		return Fig4Result{}, "", err
	}
	initCfg := cfg.Biased.Initial
	if _, err := train.MGD(net, trainSet, valSet, initCfg); err != nil {
		return Fig4Result{}, "", err
	}
	initial, err := net.Clone()
	if err != nil {
		return Fig4Result{}, "", err
	}

	ev, err := train.NewEvaluator(net, cfg.Workers)
	if err != nil {
		return Fig4Result{}, "", err
	}
	var res Fig4Result
	m0, err := ev.EvalSet(testT, 0)
	if err != nil {
		return Fig4Result{}, "", err
	}
	res.Bias = append(res.Bias, Fig4Point{Label: "ε=0.0", Accuracy: m0.Recall, FA: m0.FalseAlarms})
	res.Shift = append(res.Shift, Fig4Point{Label: "λ=0.00", Accuracy: m0.Recall, FA: m0.FalseAlarms})

	// Biased fine-tuning rounds.
	fineCfg := cfg.Biased.FineTune
	for i, eps := range []float64{0.1, 0.2, 0.3} {
		fineCfg.Eps = eps
		fineCfg.Seed = cfg.Biased.FineTune.Seed + int64(i)
		if _, err := train.MGD(net, trainSet, valSet, fineCfg); err != nil {
			return Fig4Result{}, "", err
		}
		m, err := ev.EvalSet(testT, 0)
		if err != nil {
			return Fig4Result{}, "", err
		}
		res.Bias = append(res.Bias, Fig4Point{
			Label: fmt.Sprintf("ε=%.1f", eps), Accuracy: m.Recall, FA: m.FalseAlarms,
		})
	}

	// Boundary shifting on the initial model, matched to each biased
	// round's accuracy.
	grid := make([]float64, 0, 100)
	for s := 0.0; s < 0.5; s += 0.005 {
		grid = append(grid, s)
	}
	for _, bp := range res.Bias[1:] {
		shift, m, _, err := train.MatchShiftToRecall(initial, testT, bp.Accuracy, grid)
		if err != nil {
			return Fig4Result{}, "", err
		}
		res.Shift = append(res.Shift, Fig4Point{
			Label: fmt.Sprintf("λ=%.2f", shift), Accuracy: m.Recall, FA: m.FalseAlarms,
		})
	}
	return res, FormatFig4(res), nil
}

// FormatFig4 renders the trade-off table behind the paper's Figure 4.
func FormatFig4(r Fig4Result) string {
	var b strings.Builder
	b.WriteString("Figure 4: biased learning vs boundary shifting, Industry3 test set (reproduced)\n")
	b.WriteString("biased learning:\n")
	for _, p := range r.Bias {
		fmt.Fprintf(&b, "  %-8s accuracy=%5.1f%%  FA=%d\n", p.Label, 100*p.Accuracy, p.FA)
	}
	b.WriteString("boundary shifting (matched accuracy):\n")
	for _, p := range r.Shift {
		fmt.Fprintf(&b, "  %-8s accuracy=%5.1f%%  FA=%d\n", p.Label, 100*p.Accuracy, p.FA)
	}
	if n := len(r.Bias); n > 1 && len(r.Shift) == n {
		saved := 0
		for i := 1; i < n; i++ {
			saved += r.Shift[i].FA - r.Bias[i].FA
		}
		fmt.Fprintf(&b, "false alarms saved by biased learning across matched points: %d (ODST saving ≈ %.0f s)\n",
			saved, 10.0*float64(saved))
	}
	return b.String()
}
