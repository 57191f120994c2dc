// Package train implements the paper's training machinery: mini-batch
// gradient descent with step learning-rate decay and validation-based
// stopping (Algorithm 1), the biased learning loop that softens the
// non-hotspot ground truth (Algorithm 2), and the decision-boundary
// shifting it is compared against (Equation (11)).
package train

import (
	"fmt"
	"math/rand"
	"time"

	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/tensor"
)

// The MGD stage summaries in the process registry: one observation per
// optimization step and one per validation epoch.
var (
	stepSum  = obs.Default().Stage("train/step")
	epochSum = obs.Default().Stage("train/epoch")
)

// Sample is one training instance: a feature tensor and its label.
type Sample struct {
	X       *tensor.Tensor
	Hotspot bool
}

// Split partitions samples into training and validation subsets, shuffling
// deterministically; frac is the validation fraction (the paper holds out
// 25%).
func Split(samples []Sample, frac float64, seed int64) (trainSet, valSet []Sample, err error) {
	if frac < 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("train: validation fraction %v outside [0, 1)", frac)
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("train: no samples to split")
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(samples))
	nVal := int(float64(len(samples)) * frac)
	valSet = make([]Sample, 0, nVal)
	trainSet = make([]Sample, 0, len(samples)-nVal)
	for i, j := range idx {
		if i < nVal {
			valSet = append(valSet, samples[j])
		} else {
			trainSet = append(trainSet, samples[j])
		}
	}
	return trainSet, valSet, nil
}

// Targets returns the ground-truth vectors used by biased learning: the
// hotspot target is fixed at [0, 1]; the non-hotspot target is [1−ε, ε].
func Targets(eps float64) (nonHotspot, hotspot *tensor.Tensor, err error) {
	if eps < 0 || eps >= 0.5 {
		return nil, nil, fmt.Errorf("train: bias ε=%v outside [0, 0.5)", eps)
	}
	return tensor.MustFromSlice([]float64{1 - eps, eps}, 2),
		tensor.MustFromSlice([]float64{0, 1}, 2), nil
}

// MGDConfig parameterizes Algorithm 1.
type MGDConfig struct {
	// LearningRate is λ, the initial step size.
	LearningRate float64
	// DecayFactor is α ∈ (0, 1]; the rate becomes α·λ every DecayStep
	// iterations.
	DecayFactor float64
	// DecayStep is k, the decay interval in iterations.
	DecayStep int
	// BatchSize is m, the number of instances sampled per iteration
	// (1 = stochastic gradient descent).
	BatchSize int
	// MaxIters bounds the run.
	MaxIters int
	// ValEvery is the validation cadence in iterations (0 disables
	// validation-based stopping and snapshots).
	ValEvery int
	// Patience stops training after this many consecutive validation
	// checks without improvement (0 = never stop early).
	Patience int
	// Eps is the biased-learning ε applied to the non-hotspot target.
	Eps float64
	// BalanceClasses draws each batch half from each class. The paper's
	// algorithm samples uniformly; balancing is an optional deviation for
	// heavily imbalanced suites and is off by default.
	BalanceClasses bool
	// DoubleUpdate applies the weight update twice per iteration, exactly
	// as the paper's Algorithm 1 listing reads (lines 10 and 14). The
	// listing is almost certainly a typesetting artifact, so the default
	// is the standard single update; this switch exists for ablation.
	DoubleUpdate bool
	// Seed drives batch sampling and per-sample dropout masks.
	Seed int64
	// Workers bounds the number of goroutines computing per-sample
	// gradients within a batch (and scoring validation samples). 0 means
	// parallel.Default(). Trained weights are bit-identical under any
	// worker count: sample draws, dropout masks and the gradient
	// reduction order are all functions of (Seed, iteration, batch
	// position), never of worker assignment.
	Workers int
	// OnEpoch, when set, is invoked on the training goroutine after each
	// validation checkpoint with that epoch's telemetry. Observation only:
	// the callback runs after the checkpoint is recorded, receives copies,
	// and its presence cannot change the trained weights (the parity test
	// TestMGDInstrumentationParity holds MGD to that).
	OnEpoch func(EpochEvent)
	// Tracer, when non-nil, records one trace per validation checkpoint
	// ("train/epoch", spanning the iterations since the previous
	// checkpoint: iter, loss, accuracy and learning-rate attributes plus a
	// validate span). Observation only, same contract as OnEpoch: trained
	// weights are bit-identical with tracing lit or dark.
	Tracer *trace.Tracer
}

// Validate checks the configuration.
func (c MGDConfig) Validate() error {
	if c.LearningRate <= 0 {
		return fmt.Errorf("train: learning rate must be positive, got %v", c.LearningRate)
	}
	if c.DecayFactor <= 0 || c.DecayFactor > 1 {
		return fmt.Errorf("train: decay factor %v outside (0, 1]", c.DecayFactor)
	}
	if c.DecayStep <= 0 {
		return fmt.Errorf("train: decay step must be positive, got %d", c.DecayStep)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("train: batch size must be positive, got %d", c.BatchSize)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("train: max iterations must be positive, got %d", c.MaxIters)
	}
	if c.ValEvery < 0 || c.Patience < 0 {
		return fmt.Errorf("train: negative validation cadence or patience")
	}
	if c.Eps < 0 || c.Eps >= 0.5 {
		return fmt.Errorf("train: ε=%v outside [0, 0.5)", c.Eps)
	}
	return nil
}

// Checkpoint is one validation measurement during training.
type Checkpoint struct {
	Iter        int
	Elapsed     time.Duration
	ValAccuracy float64
	ValRecall   float64
	ValFA       int
	TrainLoss   float64 // running average over the interval
}

// History is the sequence of validation checkpoints of one run.
type History []Checkpoint

// EpochEvent is the telemetry handed to MGDConfig.OnEpoch at each
// validation checkpoint: the checkpoint itself plus the optimizer and
// latency state a dashboard wants alongside it.
type EpochEvent struct {
	Checkpoint
	// LearningRate is the decayed rate in effect at the checkpoint.
	LearningRate float64
	// StepP50 and StepP99 are per-iteration latencies in seconds over the
	// recent window of the "train/step" stage.
	StepP50, StepP99 float64
}

// sampleSeed derives the dropout seed for one training sample from the run
// seed and the sample's global position counter ((iter−1)·BatchSize + b).
// It is a splitmix64 finalizer, so nearby counters give uncorrelated
// streams. Crucially it depends only on (seed, counter) — never on which
// worker processes the sample — which is what makes parallel gradients
// bit-identical to serial ones.
func sampleSeed(seed, counter int64) int64 {
	z := uint64(seed) + (uint64(counter)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// sampleGrad runs one training sample through net (forward, loss, backward)
// with its dropout stream reseeded from the sample's global counter.
// Gradients accumulate into net's Param.Grad tensors, or, on a shadow,
// are stored there.
//
//hsd:hotpath
func sampleGrad(net *nn.Network, s Sample, yn, yh *tensor.Tensor, seed int64) (float64, error) {
	target := yn
	if s.Hotspot {
		target = yh
	}
	net.ReseedDropout(seed)
	out, err := net.Forward(s.X, true)
	if err != nil {
		return 0, err
	}
	loss, dlogits, err := nn.SoftmaxCrossEntropy(out, target)
	if err != nil {
		return 0, err
	}
	if err := net.Backward(dlogits); err != nil {
		return 0, err
	}
	return loss, nil
}

// MGD trains net in place per Algorithm 1 and returns the validation
// history. When validation is enabled the network is restored to the
// best-accuracy snapshot before returning (the paper returns "the model
// with the best performance on the validation set").
//
// With cfg.Workers > 1 the per-sample gradients of each batch are computed
// concurrently on worker shadows of net (nn.Network.Shadow), built once per
// call, and reduced in batch-position order; see DESIGN.md ("Concurrency
// model") for why the result is bit-identical to the single-worker path.
func MGD(net *nn.Network, trainSet, valSet []Sample, cfg MGDConfig) (History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trainSet) == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	if cfg.ValEvery > 0 && len(valSet) == 0 {
		return nil, fmt.Errorf("train: validation enabled but validation set is empty")
	}
	yn, yh, err := Targets(cfg.Eps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var hsIdx, nhsIdx []int
	if cfg.BalanceClasses {
		for i, s := range trainSet {
			if s.Hotspot {
				hsIdx = append(hsIdx, i)
			} else {
				nhsIdx = append(nhsIdx, i)
			}
		}
		if len(hsIdx) == 0 || len(nhsIdx) == 0 {
			return nil, fmt.Errorf("train: balanced sampling needs both classes present")
		}
	}

	// Worker setup. More shadows than batch positions can never help.
	nW := parallel.Workers(cfg.Workers)
	if nW > cfg.BatchSize {
		nW = cfg.BatchSize
	}
	pool := parallel.New(nW)
	masterParams := net.Params()
	var (
		shadows []*nn.Network // shadow s runs wave position s
		slots   [][]*nn.Param // slots[s]: shadow s's parameters, whose gradients are position s's
		losses  []float64
		ranges  []foldRange
	)
	if nW > 1 {
		shadows = make([]*nn.Network, nW)
		slots = make([][]*nn.Param, nW)
		for s := range shadows {
			if shadows[s], err = net.Shadow(); err != nil {
				return nil, err
			}
			slots[s] = shadows[s].Params()
		}
		losses = make([]float64, nW)
		ranges = foldRanges(masterParams)
	}
	batchIdx := make([]int, cfg.BatchSize)

	// Two fan-out closures, built once, serve every wave: the positions'
	// gradients, then their fold into the master gradients.
	var counterBase int64
	var wave, waveLen int // first batch position and size of the running wave
	gradTask := func(_, s int) error {
		b := wave + s
		loss, err := sampleGrad(shadows[s], trainSet[batchIdx[b]], yn, yh, sampleSeed(cfg.Seed, counterBase+int64(b)))
		losses[s] = loss
		return err
	}
	foldTask := func(_, r int) error {
		fr := ranges[r]
		dst := masterParams[fr.param].Grad.Data()[fr.lo:fr.hi]
		for s := 0; s < waveLen; s++ {
			for j, v := range slots[s][fr.param].Grad.Data()[fr.lo:fr.hi] {
				dst[j] += v
			}
		}
		return nil
	}

	lr := cfg.LearningRate
	// Timing is observation only: stage summaries and the run stopwatch
	// are write-only sinks here; nothing the optimizer computes reads them.
	// An epoch stage still open when MGD returns is never filed.
	watch := obs.NewStopwatch()
	epoch := cfg.Tracer.Stage("train/epoch", epochSum)
	var hist History
	bestAcc := -1.0
	var best *nn.Network
	sinceBest := 0
	lossAccum, lossCount := 0.0, 0

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		step := trace.Time(stepSum)
		// Draw the whole batch up front. The rand call sequence is exactly
		// the legacy serial one, so sampling is identical under any worker
		// count (and to earlier versions of this code).
		for b := range batchIdx {
			if cfg.BalanceClasses {
				// Choose the class at random (not by batch position): a
				// deterministic alternation would sample only one class
				// when BatchSize is 1.
				if rng.Intn(2) == 0 {
					batchIdx[b] = hsIdx[rng.Intn(len(hsIdx))]
				} else {
					batchIdx[b] = nhsIdx[rng.Intn(len(nhsIdx))]
				}
			} else {
				batchIdx[b] = rng.Intn(len(trainSet))
			}
		}
		counterBase = int64(iter-1) * int64(cfg.BatchSize)

		batchLoss := 0.0
		for _, p := range masterParams {
			p.Grad.Zero()
		}
		if nW <= 1 {
			for b, idx := range batchIdx {
				loss, err := sampleGrad(net, trainSet[idx], yn, yh, sampleSeed(cfg.Seed, counterBase+int64(b)))
				if err != nil {
					return nil, err
				}
				batchLoss += loss
			}
		} else {
			for wave = 0; wave < cfg.BatchSize; wave += nW {
				waveLen = min(nW, cfg.BatchSize-wave)
				if err := pool.For(waveLen, gradTask); err != nil {
					return nil, err
				}
				for s := 0; s < waveLen; s++ {
					batchLoss += losses[s]
				}
				// Fold the wave in before the next, in parallel over
				// disjoint pieces of the parameters, each element's slots
				// in batch-position order: fold-left addition per element
				// is exactly the serial loop's in-place accumulation.
				if err := pool.For(len(ranges), foldTask); err != nil {
					return nil, err
				}
			}
		}
		lossAccum += batchLoss / float64(cfg.BatchSize)
		lossCount++

		// Average the accumulated gradients and step.
		scale := lr / float64(cfg.BatchSize)
		if cfg.DoubleUpdate {
			scale *= 2
		}
		for _, p := range masterParams {
			if err := p.W.AddScaled(-scale, p.Grad); err != nil {
				return nil, err
			}
		}
		if iter%cfg.DecayStep == 0 {
			lr *= cfg.DecayFactor
		}
		step.End()

		if cfg.ValEvery > 0 && iter%cfg.ValEvery == 0 {
			val := epoch.Span().Stage("validate", nil)
			var m Metrics
			if nW > 1 {
				m, err = evalSetOn(pool, valSet, 0, func(worker int, x *tensor.Tensor) (float64, error) {
					return PredictProb(shadows[worker], x)
				})
			} else {
				m, err = EvalSet(net, valSet, 0)
			}
			if err != nil {
				return nil, err
			}
			val.End()
			cp := Checkpoint{
				Iter:        iter,
				Elapsed:     watch.Elapsed(),
				ValAccuracy: m.Accuracy,
				ValRecall:   m.Recall,
				ValFA:       m.FalseAlarms,
				TrainLoss:   lossAccum / float64(lossCount),
			}
			lossAccum, lossCount = 0, 0
			hist = append(hist, cp)
			esp := epoch.Span()
			esp.SetInt("iter", int64(iter))
			esp.SetFloat("loss", cp.TrainLoss)
			esp.SetFloat("val_accuracy", cp.ValAccuracy)
			esp.SetFloat("learning_rate", lr)
			epoch.End()
			epoch = cfg.Tracer.Stage("train/epoch", epochSum)
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(EpochEvent{
					Checkpoint:   cp,
					LearningRate: lr,
					StepP50:      stepSum.Quantile(0.50),
					StepP99:      stepSum.Quantile(0.99),
				})
			}
			if m.Accuracy > bestAcc {
				bestAcc = m.Accuracy
				sinceBest = 0
				best, err = net.Clone()
				if err != nil {
					return nil, err
				}
			} else {
				sinceBest++
				if cfg.Patience > 0 && sinceBest >= cfg.Patience {
					break
				}
			}
		}
	}
	if best != nil {
		if err := copyWeights(net, best); err != nil {
			return nil, err
		}
	}
	return hist, nil
}

// foldRange is one fold task's piece of the gradients: elements [lo, hi)
// of parameter param.
type foldRange struct{ param, lo, hi int }

// foldRangeLen bounds a fold piece at 4096 float64 (32 KB of each
// gradient), which splits the Table-1 net's 93,584 gradients into 33
// tasks.
const foldRangeLen = 4096

// foldRanges splits every parameter into pieces of at most foldRangeLen
// elements: the disjoint units a wave's fold fans out over.
func foldRanges(params []*nn.Param) []foldRange {
	var rs []foldRange
	for i, p := range params {
		n := p.Grad.Len()
		for lo := 0; lo < n; lo += foldRangeLen {
			rs = append(rs, foldRange{param: i, lo: lo, hi: min(lo+foldRangeLen, n)})
		}
	}
	return rs
}

// copyWeights copies src's parameters into dst (same architecture).
func copyWeights(dst, src *nn.Network) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("train: parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if !tensor.SameShape(dp[i].W, sp[i].W) {
			return fmt.Errorf("train: parameter %s shape mismatch", dp[i].Name)
		}
		copy(dp[i].W.Data(), sp[i].W.Data())
	}
	return nil
}
