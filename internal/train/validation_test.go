package train

import (
	"math"
	"testing"

	"hotspot/internal/nn"
)

// validationCfg stops early: on toyProblem(120, 47) the dropout toy net's
// validation accuracy peaks at the second checkpoint, holds for two and
// drops at the fifth, so MGD breaks out at iteration 50 of 600 and
// restores the iteration-20 snapshot.
func validationCfg(workers int) MGDConfig {
	return MGDConfig{
		LearningRate: 0.05,
		DecayFactor:  0.5,
		DecayStep:    100,
		BatchSize:    8,
		MaxIters:     600,
		ValEvery:     10,
		Patience:     3,
		Seed:         5,
		Workers:      workers,
	}
}

// sameMetrics reports whether two metrics agree bit for bit.
func sameMetrics(a, b Metrics) bool {
	return math.Float64bits(a.Recall) == math.Float64bits(b.Recall) &&
		math.Float64bits(a.Accuracy) == math.Float64bits(b.Accuracy) &&
		a.FalseAlarms == b.FalseAlarms &&
		a.TP == b.TP && a.FP == b.FP && a.TN == b.TN && a.FN == b.FN
}

// sameWeights reports whether two networks of one architecture hold
// bit-identical parameters.
func sameWeights(a, b *nn.Network) bool {
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j, v := range ap[i].W.Data() {
			if math.Float64bits(v) != math.Float64bits(bp[i].W.Data()[j]) {
				return false
			}
		}
	}
	return true
}

// TestMGDValidationMatchesLayered pins MGD's in-loop validation, which
// scores on an Evaluator, against the layered reference: at every
// checkpoint the recorded accuracy and recall equal layeredEvalSet's by
// Float64bits and the false alarms exactly, and the early stop and the
// best-snapshot restore both fire on those numbers.
func TestMGDValidationMatchesLayered(t *testing.T) {
	trainSet, valSet, err := Split(toyProblem(120, 47), 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		net := dropoutNet(t, 29)
		cfg := validationCfg(workers)
		var best *nn.Network
		bestAcc := -1.0
		checks := 0
		cfg.OnEpoch = func(e EpochEvent) {
			checks++
			want, err := layeredEvalSet(net, valSet, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(e.ValAccuracy) != math.Float64bits(want.Accuracy) ||
				math.Float64bits(e.ValRecall) != math.Float64bits(want.Recall) ||
				e.ValFA != want.FalseAlarms {
				t.Fatalf("workers=%d iter %d: validation (%v, %v, %d), layered (%v, %v, %d)", workers, e.Iter,
					e.ValAccuracy, e.ValRecall, e.ValFA, want.Accuracy, want.Recall, want.FalseAlarms)
			}
			if want.Accuracy > bestAcc {
				bestAcc = want.Accuracy
				if best, err = net.Clone(); err != nil {
					t.Fatal(err)
				}
			}
		}
		hist, err := MGD(net, trainSet, valSet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if checks != len(hist) || checks == 0 {
			t.Fatalf("workers=%d: %d checkpoints observed, history holds %d", workers, checks, len(hist))
		}
		if last := hist[len(hist)-1]; last.Iter >= cfg.MaxIters {
			t.Fatalf("workers=%d: no early stop (last checkpoint at iter %d)", workers, last.Iter)
		}
		if hist[len(hist)-1].ValAccuracy >= bestAcc {
			t.Fatalf("workers=%d: last checkpoint is the best, so the restore is not exercised", workers)
		}
		if !sameWeights(net, best) {
			t.Fatalf("workers=%d: restored weights are not the best checkpoint's", workers)
		}
	}
}

// TestBiasedLearningValMatchesLayered pins BiasedLearning's per-round
// validation metrics, scored on an Evaluator, against the layered
// reference: the same rounds replayed through MGD with layeredEvalSet
// after each give bit-identical metrics and, with KeepBest, the same
// final weights.
func TestBiasedLearningValMatchesLayered(t *testing.T) {
	trainSet, valSet, err := Split(toyProblem(120, 47), 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		fine := validationCfg(workers)
		fine.LearningRate = 0.02
		fine.MaxIters = 60
		cfg := BiasedConfig{
			InitialEps: 0, DeltaEps: 0.1, Rounds: 3,
			Initial: validationCfg(workers), FineTune: fine, KeepBest: true,
		}
		net := dropoutNet(t, 43)
		results, err := BiasedLearning(net, trainSet, valSet, cfg)
		if err != nil {
			t.Fatal(err)
		}

		ref := dropoutNet(t, 43)
		var best *nn.Network
		bestRecall := -1.0
		for round, r := range results {
			mcfg := cfg.Initial
			if round > 0 {
				mcfg = cfg.FineTune
				mcfg.Seed = cfg.FineTune.Seed + int64(round)
			}
			mcfg.Eps = r.Eps
			if _, err := MGD(ref, trainSet, valSet, mcfg); err != nil {
				t.Fatal(err)
			}
			want, err := layeredEvalSet(ref, valSet, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMetrics(r.Val, want) {
				t.Fatalf("workers=%d round %d: Val %+v, layered %+v", workers, round, r.Val, want)
			}
			if want.Recall > bestRecall {
				bestRecall = want.Recall
				if best, err = ref.Clone(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !sameWeights(net, best) {
			t.Fatalf("workers=%d: KeepBest weights differ from the layered replay's", workers)
		}
	}
}
