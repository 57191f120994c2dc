package train

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// toyProblem builds a small learnable dataset: the label is whether the
// mean of channel 0 exceeds zero — linearly separable from the DC channel,
// like real density-driven hotspot structure.
func toyProblem(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := tensor.New(2, 4, 4)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		mean := 0.0
		for j := 0; j < 16; j++ {
			mean += x.Data()[j]
		}
		out[i] = Sample{X: x, Hotspot: mean > 0}
	}
	return out
}

func toyNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 2, SpatialSize: 4, Conv1Maps: 4, Conv2Maps: 4,
		FC1: 8, DropoutRate: 0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func quickCfg() MGDConfig {
	return MGDConfig{
		LearningRate: 0.05,
		DecayFactor:  0.5,
		DecayStep:    200,
		BatchSize:    8,
		MaxIters:     250,
		ValEvery:     50,
		Patience:     0,
		Seed:         3,
	}
}

func TestSplit(t *testing.T) {
	samples := toyProblem(100, 1)
	tr, val, err := Split(samples, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != 25 || len(tr) != 75 {
		t.Fatalf("split sizes %d/%d", len(tr), len(val))
	}
	// Deterministic.
	tr2, val2, _ := Split(samples, 0.25, 7)
	for i := range val {
		if val[i].X != val2[i].X {
			t.Fatal("split not deterministic")
		}
	}
	_ = tr2
	// Union covers all samples exactly once.
	seen := map[*tensor.Tensor]bool{}
	for _, s := range append(append([]Sample{}, tr...), val...) {
		if seen[s.X] {
			t.Fatal("duplicate sample in split")
		}
		seen[s.X] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split lost samples: %d", len(seen))
	}
}

func TestSplitErrors(t *testing.T) {
	if _, _, err := Split(nil, 0.25, 1); err == nil {
		t.Fatal("expected empty error")
	}
	if _, _, err := Split(toyProblem(10, 1), 1.0, 1); err == nil {
		t.Fatal("expected fraction error")
	}
	if _, _, err := Split(toyProblem(10, 1), -0.1, 1); err == nil {
		t.Fatal("expected negative fraction error")
	}
}

func TestTargets(t *testing.T) {
	yn, yh, err := Targets(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if yn.At(0) != 0.8 || yn.At(1) != 0.2 {
		t.Fatalf("non-hotspot target %v", yn.Data())
	}
	if yh.At(0) != 0 || yh.At(1) != 1 {
		t.Fatalf("hotspot target %v", yh.Data())
	}
	if _, _, err := Targets(0.5); err == nil {
		t.Fatal("expected ε=0.5 error")
	}
	if _, _, err := Targets(-0.1); err == nil {
		t.Fatal("expected negative ε error")
	}
}

func TestMGDConfigValidation(t *testing.T) {
	mutations := []func(*MGDConfig){
		func(c *MGDConfig) { c.LearningRate = 0 },
		func(c *MGDConfig) { c.DecayFactor = 0 },
		func(c *MGDConfig) { c.DecayFactor = 1.5 },
		func(c *MGDConfig) { c.DecayStep = 0 },
		func(c *MGDConfig) { c.BatchSize = 0 },
		func(c *MGDConfig) { c.MaxIters = 0 },
		func(c *MGDConfig) { c.Eps = 0.5 },
		func(c *MGDConfig) { c.Patience = -1 },
	}
	for i, m := range mutations {
		cfg := quickCfg()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestMGDLearnsToyProblem(t *testing.T) {
	samples := toyProblem(300, 2)
	trainSet, valSet, err := Split(samples, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	net := toyNet(t, 11)
	hist, err := MGD(net, trainSet, valSet, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("no validation history")
	}
	m, err := layeredEvalSet(net, valSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.85 {
		t.Fatalf("toy problem val accuracy %.2f, want >= 0.85", m.Accuracy)
	}
}

func TestMGDDeterministic(t *testing.T) {
	samples := toyProblem(60, 3)
	trainSet, valSet, _ := Split(samples, 0.25, 1)
	cfg := quickCfg()
	cfg.MaxIters = 30
	cfg.ValEvery = 10
	a := toyNet(t, 21)
	b := toyNet(t, 21)
	if _, err := MGD(a, trainSet, valSet, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := MGD(b, trainSet, valSet, cfg); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].W.Data() {
			if ap[i].W.Data()[j] != bp[i].W.Data()[j] {
				t.Fatal("MGD not deterministic under identical seeds")
			}
		}
	}
}

func TestMGDErrors(t *testing.T) {
	net := toyNet(t, 1)
	cfg := quickCfg()
	if _, err := MGD(net, nil, nil, cfg); err == nil {
		t.Fatal("expected empty-train error")
	}
	samples := toyProblem(10, 1)
	if _, err := MGD(net, samples, nil, cfg); err == nil {
		t.Fatal("expected empty-val error when validation enabled")
	}
	bal := cfg
	bal.BalanceClasses = true
	oneClass := make([]Sample, 4)
	for i := range oneClass {
		oneClass[i] = Sample{X: tensor.New(2, 4, 4), Hotspot: true}
	}
	if _, err := MGD(net, oneClass, oneClass, bal); err == nil {
		t.Fatal("expected one-class balance error")
	}
}

func TestMGDPatienceStopsEarly(t *testing.T) {
	samples := toyProblem(60, 4)
	trainSet, valSet, _ := Split(samples, 0.25, 2)
	net := toyNet(t, 31)
	cfg := quickCfg()
	cfg.LearningRate = 1e-12 // nothing improves
	cfg.MaxIters = 1000
	cfg.ValEvery = 10
	cfg.Patience = 2
	hist, err := MGD(net, trainSet, valSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) >= 100 {
		t.Fatalf("patience did not stop training (%d checkpoints)", len(hist))
	}
}

func TestMGDBalancedSampling(t *testing.T) {
	// Heavily imbalanced toy set still trains with balancing on.
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := tensor.New(2, 4, 4)
		hot := i%20 == 0 // 5% positives
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64() * 0.1
		}
		if hot {
			for j := 0; j < 16; j++ {
				x.Data()[j] += 1
			}
		}
		samples = append(samples, Sample{X: x, Hotspot: hot})
	}
	trainSet, valSet, _ := Split(samples, 0.25, 3)
	net := toyNet(t, 41)
	cfg := quickCfg()
	cfg.BalanceClasses = true
	if _, err := MGD(net, trainSet, valSet, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := layeredEvalSet(net, valSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Recall < 0.9 {
		t.Fatalf("balanced training recall %.2f, want >= 0.9", m.Recall)
	}
}

func TestEvalSetConfusionConsistency(t *testing.T) {
	samples := toyProblem(80, 6)
	net := toyNet(t, 51)
	ev, err := NewEvaluator(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ev.EvalSet(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP+m.FP+m.TN+m.FN != len(samples) {
		t.Fatal("confusion counts do not sum to N")
	}
	if m.FalseAlarms != m.FP {
		t.Fatal("FalseAlarms != FP")
	}
	wantAcc := float64(m.TP+m.TN) / float64(len(samples))
	if math.Abs(m.Accuracy-wantAcc) > 1e-12 {
		t.Fatal("accuracy inconsistent with confusion matrix")
	}
	if _, err := ev.EvalSet(nil, 0); err == nil {
		t.Fatal("expected empty-set error")
	}
	if e := metricsOf(nil, nil, 0); e != (Metrics{}) {
		t.Fatalf("metrics of an empty set %+v, want zero (accuracy 0, not NaN)", e)
	}
}

func TestDecide(t *testing.T) {
	if Decide(0.6, 0) != true || Decide(0.4, 0) != false {
		t.Fatal("standard boundary wrong")
	}
	if Decide(0.4, 0.2) != true {
		t.Fatal("shifted boundary should accept 0.4 at shift 0.2")
	}
	if Decide(0.5, 0) {
		t.Fatal("exactly 0.5 should not be hotspot (strict inequality)")
	}
}

func TestShiftMonotonicity(t *testing.T) {
	// Increasing shift can only increase recall and false alarms.
	samples := toyProblem(100, 7)
	net := toyNet(t, 61)
	probs := make([]float64, len(samples))
	for i, s := range samples {
		p, err := PredictProb(net, s.X)
		if err != nil {
			t.Fatal(err)
		}
		probs[i] = p
	}
	prev := metricsOf(samples, probs, 0)
	for _, shift := range []float64{0.05, 0.1, 0.2, 0.3, 0.45} {
		m := metricsOf(samples, probs, shift)
		if m.Recall < prev.Recall || m.FalseAlarms < prev.FalseAlarms {
			t.Fatalf("shift %v not monotone: recall %v->%v, FA %v->%v",
				shift, prev.Recall, m.Recall, prev.FalseAlarms, m.FalseAlarms)
		}
		prev = m
	}
}

func TestMatchShiftToRecall(t *testing.T) {
	samples := toyProblem(150, 8)
	trainSet, valSet, _ := Split(samples, 0.3, 4)
	net := toyNet(t, 71)
	cfg := quickCfg()
	cfg.MaxIters = 150
	if _, err := MGD(net, trainSet, valSet, cfg); err != nil {
		t.Fatal(err)
	}
	base, err := layeredEvalSet(net, valSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.49}
	shift, m, ok, err := MatchShiftToRecall(net, valSet, base.Recall, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || m.Recall < base.Recall {
		t.Fatalf("shift matching failed: shift=%v ok=%v recall=%v", shift, ok, m.Recall)
	}
	// Unreachable target reports ok=false.
	_, _, ok, err = MatchShiftToRecall(net, valSet, 1.1, grid)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("recall target 1.1 should be unreachable")
	}
	if _, _, _, err := MatchShiftToRecall(net, valSet, 0.5, nil); err == nil {
		t.Fatal("expected empty-grid error")
	}
	// The metrics at the matched shift are the layered reference's.
	want, err := layeredEvalSet(net, valSet, shift)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMetrics(m, want) {
		t.Fatalf("metrics at shift %v: %+v, layered %+v", shift, m, want)
	}
	// An empty set matches a zero target at the first shift, accuracy 0.
	shift, m, ok, err = MatchShiftToRecall(net, nil, 0, grid)
	if err != nil || !ok || shift != grid[0] || m != (Metrics{}) {
		t.Fatalf("empty set: shift %v, %+v, ok %v, err %v", shift, m, ok, err)
	}
}

func TestBiasedConfigValidation(t *testing.T) {
	good := BiasedConfig{
		InitialEps: 0, DeltaEps: 0.1, Rounds: 4,
		Initial: quickCfg(), FineTune: quickCfg(),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Rounds = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected rounds error")
	}
	bad = good
	bad.DeltaEps = 0.2 // final eps = 0.6
	if err := bad.Validate(); err == nil {
		t.Fatal("expected ε-overflow error")
	}
	bad = good
	bad.Initial.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected nested config error")
	}
}

func TestBiasedLearningRounds(t *testing.T) {
	samples := toyProblem(200, 9)
	trainSet, valSet, _ := Split(samples, 0.25, 6)
	net := toyNet(t, 81)
	fine := quickCfg()
	fine.MaxIters = 60
	fine.LearningRate = 0.01
	cfg := BiasedConfig{
		InitialEps: 0, DeltaEps: 0.1, Rounds: 3,
		Initial: quickCfg(), FineTune: fine, KeepBest: true,
	}
	results, err := BiasedLearning(net, trainSet, valSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("rounds = %d", len(results))
	}
	for i, r := range results {
		wantEps := 0.1 * float64(i)
		if math.Abs(r.Eps-wantEps) > 1e-12 {
			t.Fatalf("round %d ε=%v, want %v", i, r.Eps, wantEps)
		}
	}
	// KeepBest: the final network's recall is at least the initial round's
	// (Theorem 1's direction, guaranteed here by best-model selection).
	final, err := layeredEvalSet(net, valSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Recall+1e-9 < results[0].Val.Recall {
		t.Fatalf("final recall %.3f below initial %.3f despite KeepBest",
			final.Recall, results[0].Val.Recall)
	}
}

func TestMGDDoubleUpdateAblation(t *testing.T) {
	// The literal Algorithm 1 listing (two updates per iteration) must be
	// exactly equivalent to doubling the learning rate of the single-update
	// form, given identical sampling.
	samples := toyProblem(80, 40)
	trainSet, valSet, _ := Split(samples, 0.25, 9)
	cfg := quickCfg()
	cfg.MaxIters = 40
	cfg.ValEvery = 0

	a := toyNet(t, 101)
	cfgA := cfg
	cfgA.DoubleUpdate = true
	if _, err := MGD(a, trainSet, valSet, cfgA); err != nil {
		t.Fatal(err)
	}

	b := toyNet(t, 101)
	cfgB := cfg
	cfgB.LearningRate = cfg.LearningRate * 2
	if _, err := MGD(b, trainSet, valSet, cfgB); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].W.Data() {
			if math.Abs(ap[i].W.Data()[j]-bp[i].W.Data()[j]) > 1e-9 {
				t.Fatal("double update is not equivalent to doubled learning rate")
			}
		}
	}
}

func TestMGDValEveryZeroSkipsValidation(t *testing.T) {
	samples := toyProblem(40, 41)
	trainSet, _, _ := Split(samples, 0, 1)
	cfg := quickCfg()
	cfg.ValEvery = 0
	cfg.MaxIters = 20
	net := toyNet(t, 102)
	hist, err := MGD(net, trainSet, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 {
		t.Fatal("validation disabled but history non-empty")
	}
}

func TestCheckpointFieldsPopulated(t *testing.T) {
	samples := toyProblem(60, 42)
	trainSet, valSet, _ := Split(samples, 0.25, 2)
	cfg := quickCfg()
	cfg.MaxIters = 60
	cfg.ValEvery = 20
	net := toyNet(t, 103)
	hist, err := MGD(net, trainSet, valSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history length %d, want 3", len(hist))
	}
	prev := 0
	for _, cp := range hist {
		if cp.Iter <= prev {
			t.Fatal("iterations not increasing")
		}
		prev = cp.Iter
		if cp.Elapsed <= 0 {
			t.Fatal("elapsed not populated")
		}
		if cp.TrainLoss <= 0 {
			t.Fatal("train loss not populated")
		}
	}
}
