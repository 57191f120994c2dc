package boost

import (
	"math"
	"math/rand"
	"testing"
)

func TestStumpPredict(t *testing.T) {
	s := Stump{Feature: 1, Threshold: 0.5, Polarity: +1}
	if s.Predict([]float64{9, 0.6}) != 1 {
		t.Fatal("above threshold should be +1")
	}
	if s.Predict([]float64{9, 0.4}) != -1 {
		t.Fatal("below threshold should be -1")
	}
	neg := Stump{Feature: 0, Threshold: 0, Polarity: -1}
	if neg.Predict([]float64{1}) != -1 || neg.Predict([]float64{-1}) != 1 {
		t.Fatal("negative polarity inverted")
	}
}

// separableData builds a 2-D dataset where the label depends on feature 0
// with margin; feature 1 is noise.
func separableData(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		label := rng.Intn(2) == 0
		f0 := rng.Float64()*0.8 + 0.1
		if label {
			f0 += 1.0
		}
		X[i] = []float64{f0, rng.NormFloat64()}
		y[i] = label
	}
	return X, y
}

// intervalData is not separable by one stump (the positive class is a
// band in feature 0) but a small stump ensemble represents it exactly.
func intervalData(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		f0 := rng.Float64()
		X[i] = []float64{f0, rng.NormFloat64()}
		y[i] = f0 > 0.35 && f0 < 0.75
	}
	return X, y
}

func accuracy(scoreFn func([]float64) bool, X [][]float64, y []bool) float64 {
	correct := 0
	for i := range X {
		if scoreFn(X[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func TestAdaBoostSeparable(t *testing.T) {
	X, y := separableData(200, 1)
	ens, err := TrainAdaBoost(X, y, 20)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(ens.Predict, X, y); acc < 0.99 {
		t.Fatalf("separable accuracy %.3f", acc)
	}
	// A separable problem should terminate early on a perfect stump.
	if len(ens.Stumps) > 3 {
		t.Fatalf("expected early stop, got %d rounds", len(ens.Stumps))
	}
}

func TestAdaBoostInterval(t *testing.T) {
	X, y := intervalData(400, 2)
	ens, err := TrainAdaBoost(X, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(ens.Predict, X, y); acc < 0.95 {
		t.Fatalf("interval accuracy %.3f, want >= 0.95", acc)
	}
	if len(ens.Stumps) < 2 {
		t.Fatal("interval target needs more than one stump")
	}
}

func TestAdaBoostErrors(t *testing.T) {
	X, y := separableData(10, 3)
	if _, err := TrainAdaBoost(X, y, 0); err == nil {
		t.Fatal("expected rounds error")
	}
	if _, err := TrainAdaBoost(nil, nil, 5); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := TrainAdaBoost([][]float64{{1}, {2}}, []bool{true}, 5); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := TrainAdaBoost([][]float64{{1}, {2, 3}}, []bool{true, false}, 5); err == nil {
		t.Fatal("expected ragged error")
	}
	if _, err := TrainAdaBoost([][]float64{{}, {}}, []bool{true, false}, 5); err == nil {
		t.Fatal("expected zero-dim error")
	}
	// Pure-noise labels identical to features: constant feature has no
	// stump beating chance.
	Xc := [][]float64{{1}, {1}, {1}, {1}}
	yc := []bool{true, false, true, false}
	if _, err := TrainAdaBoost(Xc, yc, 5); err == nil {
		t.Fatal("expected no-signal error")
	}
}

func TestSmoothBoostSeparable(t *testing.T) {
	X, y := separableData(200, 5)
	sb, err := TrainSmoothBoost(X, y, 30)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(sb.Predict, X, y); acc < 0.98 {
		t.Fatalf("smooth boost separable accuracy %.3f", acc)
	}
}

func TestSmoothBoostInterval(t *testing.T) {
	X, y := intervalData(400, 6)
	sb, err := TrainSmoothBoost(X, y, 150)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(sb.Predict, X, y); acc < 0.9 {
		t.Fatalf("smooth boost interval accuracy %.3f", acc)
	}
}

func TestSmoothBoostNoiseRobustness(t *testing.T) {
	// With 10% label noise, smooth boosting must still fit the clean
	// structure; capped weights prevent noisy points from dominating.
	X, y := separableData(300, 7)
	rng := rand.New(rand.NewSource(8))
	noisy := append([]bool(nil), y...)
	for i := range noisy {
		if rng.Float64() < 0.1 {
			noisy[i] = !noisy[i]
		}
	}
	sb, err := TrainSmoothBoost(X, noisy, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate against the CLEAN labels.
	if acc := accuracy(sb.Predict, X, y); acc < 0.9 {
		t.Fatalf("noise-robust accuracy %.3f", acc)
	}
}

func TestSmoothBoostPartialFit(t *testing.T) {
	X, y := separableData(100, 9)
	sb, err := TrainSmoothBoost(X[:50], y[:50], 20)
	if err != nil {
		t.Fatal(err)
	}
	before := len(sb.Stumps)
	if err := sb.PartialFit(X[50:], y[50:], 10); err != nil {
		t.Fatal(err)
	}
	if sb.BufferSize() != 100 {
		t.Fatalf("buffer size %d, want 100", sb.BufferSize())
	}
	if len(sb.Stumps) < before {
		t.Fatal("PartialFit dropped rounds")
	}
	if acc := accuracy(sb.Predict, X, y); acc < 0.95 {
		t.Fatalf("post-update accuracy %.3f", acc)
	}
}

func TestSmoothBoostPartialFitErrors(t *testing.T) {
	X, y := separableData(20, 10)
	sb, err := TrainSmoothBoost(X, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.PartialFit(nil, nil, 5); err == nil {
		t.Fatal("expected empty error")
	}
	if err := sb.PartialFit([][]float64{{1, 1}}, []bool{true, false}, 5); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestSmoothBoostWeightsAreCapped(t *testing.T) {
	// Indirect check via margins: alphas are bounded by 0.5 per round, so
	// the total score is bounded by rounds/2.
	X, y := intervalData(200, 11)
	sb, err := TrainSmoothBoost(X, y, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sb.Alphas {
		if a > 0.5+1e-12 || a <= 0 {
			t.Fatalf("smooth-boost alpha %v outside (0, 0.5]", a)
		}
	}
	maxScore := 0.0
	for i := range X {
		if s := math.Abs(sb.Score(X[i])); s > maxScore {
			maxScore = s
		}
	}
	if maxScore > float64(len(sb.Stumps))/2+1e-9 {
		t.Fatalf("score %v exceeds alpha budget", maxScore)
	}
}
