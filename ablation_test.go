package hotspot_test

import (
	"testing"

	"hotspot/internal/core"
	"hotspot/internal/dataset"
	"hotspot/internal/experiments"
	"hotspot/internal/train"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// literal double weight update of the paper's Algorithm 1 listing,
// dihedral augmentation, the feature tensor depth k, and class-balanced
// minibatch sampling. Each reports the resulting test recall/FA as
// benchmark metrics so `go test -bench Ablation` doubles as the ablation
// table.

// ablationRun trains the detector on the cached Industry3 suite (the
// hardest benchmark, and one that keeps enough hotspots at bench scale to
// be informative — the scaled ICCAD suite has too few) with the given
// config mutation and reports test metrics.
func ablationRun(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	opts := benchOpts()
	opts.Iters = 200 // ablations compare configurations, not budgets
	ds, err := experiments.LoadSuite("Industry3", opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := experiments.DetectorConfig(opts)
		mutate(&cfg)
		det, err := core.NewDetector(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := det.Train(ds.Train, ds.Core()); err != nil {
			b.Fatal(err)
		}
		testT, err := dataset.TensorSamples(ds.Test, ds.Core(), cfg.Feature, 0)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := train.NewEvaluator(det.Network(), 0)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ev.EvalSet(testT, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*m.Recall, "recall-%")
		b.ReportMetric(float64(m.FalseAlarms), "FA")
	}
}

func BenchmarkAblationBaselineConfig(b *testing.B) {
	ablationRun(b, func(cfg *core.Config) {})
}

func BenchmarkAblationDoubleUpdate(b *testing.B) {
	// The paper's Algorithm 1 listing updates W twice per iteration (lines
	// 10 and 14); the default treats that as a typesetting artifact.
	ablationRun(b, func(cfg *core.Config) {
		cfg.Biased.Initial.DoubleUpdate = true
		cfg.Biased.FineTune.DoubleUpdate = true
	})
}

func BenchmarkAblationNoAugment(b *testing.B) {
	ablationRun(b, func(cfg *core.Config) { cfg.AugmentVariants = 1 })
}

func BenchmarkAblationNoBalance(b *testing.B) {
	ablationRun(b, func(cfg *core.Config) {
		cfg.Biased.Initial.BalanceClasses = false
		cfg.Biased.FineTune.BalanceClasses = false
	})
}

func BenchmarkAblationNoBias(b *testing.B) {
	// Single round: plain MGD with hard targets, no biased fine-tuning.
	ablationRun(b, func(cfg *core.Config) { cfg.Biased.Rounds = 1 })
}

func BenchmarkAblationK8(b *testing.B) {
	// Shallower feature tensor: k = 8 of the paper's 32 coefficients.
	ablationRun(b, func(cfg *core.Config) {
		cfg.Feature.K = 8
		cfg.Net.InChannels = 8
	})
}

// BenchmarkAblationSGDvsMGDStep compares per-sample step cost (the
// mechanical side of Figure 3) without training to convergence.
func BenchmarkAblationSGDvsMGDStep(b *testing.B) {
	opts := benchOpts()
	ds, err := experiments.LoadSuite("Industry3", opts)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.DetectorConfig(opts)
	trainT, _, err := experiments.TensorSets(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	trainSet, valSet, err := train.Split(trainT, 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		det, err := core.NewDetector(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mcfg := cfg.Biased.Initial
		mcfg.MaxIters = 50
		mcfg.ValEvery = 0
		if _, err := train.MGD(det.Network(), trainSet, valSet, mcfg); err != nil {
			b.Fatal(err)
		}
	}
}
