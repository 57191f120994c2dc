// Package core assembles the paper's hotspot detection framework behind one
// Detector type: feature tensor generation (§3) feeding the Table 1 CNN,
// trained with mini-batch gradient descent (Algorithm 1) under the biased
// learning schedule (Algorithm 2), with boundary-shifted prediction
// (Equation (11)) available for the Figure 4 comparison.
package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hotspot/internal/dataset"
	"hotspot/internal/eval"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// Config assembles every knob of the framework.
type Config struct {
	// Feature is the feature tensor extraction configuration; Feature.K
	// and Feature.Blocks must match Net.InChannels and Net.SpatialSize.
	Feature feature.TensorConfig
	// Net is the CNN architecture (Table 1 by default).
	Net nn.PaperNetConfig
	// Biased is the training schedule (Algorithm 2 wrapping Algorithm 1).
	Biased train.BiasedConfig
	// ValFraction is the held-out validation share of the training set
	// (the paper separates 25%).
	ValFraction float64
	// AugmentVariants is the number of dihedral symmetries used to augment
	// the training clips (1 = no augmentation, 8 = full square symmetry
	// group). Augmentation happens after the train/validation split, so
	// variants of one clip never straddle it.
	AugmentVariants int
	// Seed drives the train/validation split.
	Seed int64
	// Workers bounds the goroutines used for feature extraction, gradient
	// computation and evaluation (0 = parallel.Default()). Any value
	// produces identical results; this is purely a throughput knob. When
	// non-zero it overrides the Workers fields of the nested MGD configs.
	Workers int
	// OnEpoch, when set, receives per-epoch training telemetry from every
	// biased-learning round (round index, bias ε, checkpoint metrics).
	// Observation only; it cannot change the trained weights. Not part of
	// the persisted model.
	OnEpoch func(round int, eps float64, e train.EpochEvent)
}

// DefaultConfig mirrors the paper at laptop scale: the Table 1 network on
// 12×12×32 feature tensors; biased learning with α=0.5 and ε stepping
// 0→0.3 by 0.1 over t=4 rounds. The paper's Table 2 run uses λ=1e-4 with a
// 10000-iteration decay step at full industrial scale on GPU-sized batches;
// the scaled suites here train best around λ=0.02 with batch 16 (averaged
// minibatch gradients are small relative to single-sample SGD, and the
// feature tensors are normalized), so that is the default. Override for
// paper-sized datasets.
func DefaultConfig() Config {
	initial := train.MGDConfig{
		LearningRate:   0.02,
		DecayFactor:    0.5,
		DecayStep:      1000,
		BatchSize:      16,
		MaxIters:       2400,
		ValEvery:       200,
		Patience:       8,
		BalanceClasses: true,
		Seed:           7,
	}
	fine := initial
	fine.LearningRate = 0.004
	fine.MaxIters = 500
	fine.DecayStep = 250
	fine.ValEvery = 100
	fine.Patience = 4
	return Config{
		Feature: feature.DefaultTensorConfig(),
		Net:     nn.DefaultPaperNetConfig(),
		Biased: train.BiasedConfig{
			InitialEps: 0,
			DeltaEps:   0.1,
			Rounds:     4,
			Initial:    initial,
			FineTune:   fine,
			KeepBest:   true,
		},
		ValFraction:     0.25,
		AugmentVariants: 8,
		Seed:            17,
	}
}

// Validate cross-checks the configuration.
func (c Config) Validate() error {
	if err := c.Feature.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if err := c.Biased.Validate(); err != nil {
		return err
	}
	if c.Net.InChannels != c.Feature.K {
		return fmt.Errorf("core: network expects %d channels but feature tensor has K=%d",
			c.Net.InChannels, c.Feature.K)
	}
	if c.Net.SpatialSize != c.Feature.Blocks {
		return fmt.Errorf("core: network expects %d×%d input but feature tensor has %d blocks",
			c.Net.SpatialSize, c.Net.SpatialSize, c.Feature.Blocks)
	}
	if c.ValFraction < 0 || c.ValFraction >= 1 {
		return fmt.Errorf("core: validation fraction %v outside [0, 1)", c.ValFraction)
	}
	if c.AugmentVariants < 1 || c.AugmentVariants > 8 {
		return fmt.Errorf("core: augmentation variants %d outside [1, 8]", c.AugmentVariants)
	}
	return nil
}

// Detector is the trained (or trainable) framework instance.
type Detector struct {
	cfg Config
	net *nn.Network
}

// NewDetector validates the configuration and builds an untrained detector.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := nn.NewPaperNet(cfg.Net)
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, net: net}, nil
}

// Config returns the detector configuration.
func (d *Detector) Config() Config { return d.cfg }

// Network exposes the underlying CNN (for summaries and experiments).
func (d *Detector) Network() *nn.Network { return d.net }

// TrainReport summarizes a training run.
type TrainReport struct {
	Rounds       []train.RoundResult
	TrainSamples int
	ValSamples   int
	Elapsed      time.Duration
}

// Train extracts feature tensors for the labelled clips and runs biased
// learning. core is the clip-core rectangle in clip coordinates (shared by
// all samples of a suite). The clips are split into training and
// validation portions first; training clips are then augmented with
// Config.AugmentVariants dihedral symmetries.
func (d *Detector) Train(samples []layout.Sample, core geom.Rect) (*TrainReport, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	perm := rand.New(rand.NewSource(d.cfg.Seed)).Perm(len(samples))
	nVal := int(float64(len(samples)) * d.cfg.ValFraction)
	valClips := make([]layout.Sample, 0, nVal)
	trainClips := make([]layout.Sample, 0, len(samples)-nVal)
	for i, j := range perm {
		if i < nVal {
			valClips = append(valClips, samples[j])
		} else {
			trainClips = append(trainClips, samples[j])
		}
	}
	trainT, err := dataset.AugmentedTensorSamples(trainClips, core, d.cfg.Feature, d.cfg.AugmentVariants, d.cfg.Workers)
	if err != nil {
		return nil, err
	}
	valT, err := dataset.TensorSamples(valClips, core, d.cfg.Feature, d.cfg.Workers)
	if err != nil {
		return nil, err
	}
	watch := obs.NewStopwatch()
	rounds, err := train.BiasedLearning(d.net, trainT, valT, d.biasedConfig())
	if err != nil {
		return nil, err
	}
	return &TrainReport{
		Rounds:       rounds,
		TrainSamples: len(trainT),
		ValSamples:   len(valT),
		Elapsed:      watch.Elapsed(),
	}, nil
}

// biasedConfig returns the training schedule with Config.Workers threaded
// into the nested MGD configurations (when set).
func (d *Detector) biasedConfig() train.BiasedConfig {
	cfg := d.cfg.Biased
	if d.cfg.Workers != 0 {
		cfg.Initial.Workers = d.cfg.Workers
		cfg.FineTune.Workers = d.cfg.Workers
	}
	if d.cfg.OnEpoch != nil {
		cfg.OnEpoch = d.cfg.OnEpoch
	}
	return cfg
}

// Predict returns the hotspot probability of one clip, scored on a fused
// engine as Evaluate scores a test set.
func (d *Detector) Predict(c geom.Clip, core geom.Rect) (float64, error) {
	ft, err := feature.ExtractTensor(c, core, d.cfg.Feature)
	if err != nil {
		return 0, err
	}
	ev, err := train.NewEvaluator(d.net, 1)
	if err != nil {
		return 0, err
	}
	probs, err := ev.PredictProbs([]*tensor.Tensor{ft})
	if err != nil {
		return 0, err
	}
	return probs[0], nil
}

// Evaluate scores a labelled test set and returns the Table 2 row. Feature
// extraction and inference both fan across Config.Workers goroutines; the
// reported time is the wall clock of that full testing pipeline, and the
// confusion counts are identical to a serial evaluation.
func (d *Detector) Evaluate(samples []layout.Sample, core geom.Rect, benchmark string) (eval.Result, error) {
	if len(samples) == 0 {
		return eval.Result{}, fmt.Errorf("core: empty test set")
	}
	watch := obs.NewStopwatch()
	clips := make([]geom.Clip, len(samples))
	for i, s := range samples {
		clips[i] = s.Clip
	}
	xs, err := feature.ExtractTensors(clips, core, d.cfg.Feature, d.cfg.Workers)
	if err != nil {
		return eval.Result{}, err
	}
	ev, err := train.NewEvaluator(d.net, d.cfg.Workers)
	if err != nil {
		return eval.Result{}, err
	}
	probs, err := ev.PredictProbs(xs)
	if err != nil {
		return eval.Result{}, err
	}
	tp, fp, fn := 0, 0, 0
	for i, p := range probs {
		pred := train.Decide(p, 0)
		switch {
		case pred && samples[i].Hotspot:
			tp++
		case pred && !samples[i].Hotspot:
			fp++
		case !pred && samples[i].Hotspot:
			fn++
		}
	}
	return eval.NewResult("Ours", benchmark, tp, fp, fn, watch.Elapsed())
}

// Save persists the trained network.
func (d *Detector) Save(w io.Writer) error { return d.net.Save(w) }

// LoadDetector restores a detector from a saved network and its config.
// Loading goes through train.LoadWarmStart, the shared warm-start entry
// point, which validates the checkpoint against the configured feature
// geometry; the restored detector is equally fit for serving and for
// continued training (hsd-train -init, the active-learning loop).
func LoadDetector(r io.Reader, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := train.LoadWarmStart(r, []int{cfg.Feature.K, cfg.Feature.Blocks, cfg.Feature.Blocks})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Detector{cfg: cfg, net: net}, nil
}
