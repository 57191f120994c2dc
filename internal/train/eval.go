package train

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/parallel"
	"hotspot/internal/tensor"
)

// Metrics summarizes classification quality on a sample set using the
// paper's definitions: Accuracy (Definition 1) is hotspot recall — correctly
// predicted hotspots over all real hotspots — and FalseAlarms (Definition 2)
// counts non-hotspots predicted as hotspots.
type Metrics struct {
	// Recall is the paper's "Accuracy": TP / (TP + FN).
	Recall float64
	// FalseAlarms is the absolute count of false positives.
	FalseAlarms int
	// Accuracy is overall correctness (TP+TN)/N, used for validation-based
	// stopping.
	Accuracy float64
	// TP, FP, TN, FN are the confusion-matrix counts.
	TP, FP, TN, FN int
}

// PredictProb runs one sample through the network in inference mode and
// returns the softmax probability of the hotspot class (y(1) in the
// paper's notation).
func PredictProb(net *nn.Network, x *tensor.Tensor) (float64, error) {
	out, err := net.Forward(x, false)
	if err != nil {
		return 0, err
	}
	p, err := nn.Softmax(out)
	if err != nil {
		return 0, err
	}
	if p.Len() != 2 {
		return 0, fmt.Errorf("train: classifier emitted %d outputs, want 2", p.Len())
	}
	return p.At(1), nil
}

// Decide applies the (optionally shifted) decision rule of Equations (9)
// and (11): hotspot when y(1) > 0.5 − shift. shift = 0 is the standard
// boundary; shift > 0 trades false alarms for recall.
func Decide(probHot, shift float64) bool { return probHot > 0.5-shift }

// EvalSet computes Metrics over a sample set with the given boundary shift,
// serially on the calling goroutine. For parallel scoring use an Evaluator.
func EvalSet(net *nn.Network, samples []Sample, shift float64) (Metrics, error) {
	return evalSetOn(parallel.New(1), samples, shift, func(_ int, x *tensor.Tensor) (float64, error) {
		return PredictProb(net, x)
	})
}

// evalSetOn scores samples across the pool; predict's worker argument owns
// that worker's scratch (a layered replica or a fused engine) exclusively
// for the duration of the call. Predictions land in index-addressed slots,
// so the folded counts — and with them every derived metric — are
// identical under any worker count.
func evalSetOn(pool *parallel.Pool, samples []Sample, shift float64, predict func(worker int, x *tensor.Tensor) (float64, error)) (Metrics, error) {
	if len(samples) == 0 {
		return Metrics{}, fmt.Errorf("train: empty evaluation set")
	}
	preds, err := parallel.Map(pool, len(samples), func(worker, i int) (bool, error) {
		p, err := predict(worker, samples[i].X)
		if err != nil {
			return false, err
		}
		return Decide(p, shift), nil
	})
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	for i, pred := range preds {
		switch {
		case pred && samples[i].Hotspot:
			m.TP++
		case pred && !samples[i].Hotspot:
			m.FP++
		case !pred && !samples[i].Hotspot:
			m.TN++
		default:
			m.FN++
		}
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	m.FalseAlarms = m.FP
	m.Accuracy = float64(m.TP+m.TN) / float64(len(samples))
	return m, nil
}

// Evaluator fans fused inference for one network across a worker pool:
// one compiled fused.Engine per worker, every engine compiled from the
// wrapped network itself. An engine never writes a layer object and only
// reads the parameter tensors it aliases, so the workers share the one
// network read-only, and weights updated in place between calls (training
// steps, best-snapshot restores) are visible without recompiling.
// Probabilities are bit-identical to the layered PredictProb. Not safe for
// concurrent use; the zero value is not usable — build one with
// NewEvaluator.
type Evaluator struct {
	net  *nn.Network
	pool *parallel.Pool
	// engines[w] is worker w's plan for one input shape; nil until the
	// first Prepare.
	engines []*fused.Engine
}

// NewEvaluator builds an evaluator over net with the given worker count
// (0 = parallel.Default()). Engines compile on the first Prepare.
func NewEvaluator(net *nn.Network, workers int) (*Evaluator, error) {
	return &Evaluator{net: net, pool: parallel.New(workers)}, nil
}

// Workers returns the evaluator's worker count.
func (e *Evaluator) Workers() int { return e.pool.Size() }

// errUnprepared rejects PredictOn before any Prepare compiled engines.
var errUnprepared = errors.New("train: evaluator used before Prepare")

// Prepare compiles one fused engine per worker for inputs of exactly
// inShape; engines already compiled for that shape are kept. It is the
// evaluator's only compile point: EvalSet and PredictProbs call it for
// their first input, and callers that drive their own fan-out over
// PredictOn — the full-layout scan engine scores millions of windows
// without materializing a []*tensor.Tensor batch — call it once per pass.
// It fails for a network the fused engine cannot run and for one that
// does not emit the two class logits, keeping any engines it already had.
// Not safe concurrently with evaluation.
func (e *Evaluator) Prepare(inShape []int) error {
	if e.engines != nil && slices.Equal(e.engines[0].InShape(), inShape) {
		return nil
	}
	engines := make([]*fused.Engine, e.pool.Size())
	for w := range engines {
		eng, err := fused.Compile(e.net, inShape)
		if err != nil {
			return fmt.Errorf("train: evaluator: %w", err)
		}
		if eng.OutLen() != 2 {
			return fmt.Errorf("train: evaluator: classifier emits %d outputs, want 2", eng.OutLen())
		}
		engines[w] = eng
	}
	e.engines = engines
	return nil
}

// PredictOn scores one sample on worker w's engine (w in [0, Workers())).
// The caller owns the fan-out: each worker index must be used by at most
// one goroutine at a time, and Prepare must have run for x's shape; a
// sample of another shape fails with the engine's shape error.
// Probabilities are bit-identical to PredictProb.
//
// It is a hot-path root in its own right because it also runs as a
// parallel worker body: the func-value hop through parallel.Map hides it
// from the callers' reachability walks.
//
//hsd:hotpath
func (e *Evaluator) PredictOn(worker int, x *tensor.Tensor) (float64, error) {
	if e.engines == nil {
		return 0, errUnprepared
	}
	out, err := e.engines[worker].Forward(x)
	if err != nil {
		return 0, err
	}
	return probHot(out), nil
}

// probHot converts the classifier's two logits (Prepare guarantees two) to
// the hotspot softmax probability y(1) in nn.Softmax's exact operation
// order (running max, exp of shifted logits, sequential sum, one divide),
// so the fused path returns bit-identical probabilities to PredictProb.
func probHot(out []float64) float64 {
	m := out[0]
	if out[1] > m {
		m = out[1]
	}
	e0 := math.Exp(out[0] - m)
	e1 := math.Exp(out[1] - m)
	sum := 0.0
	sum += e0
	sum += e1
	return e1 / sum
}

// EvalSet computes Metrics over a sample set with the given boundary
// shift, fanning samples across the pool. Results are identical to the
// serial EvalSet.
func (e *Evaluator) EvalSet(samples []Sample, shift float64) (Metrics, error) {
	if len(samples) > 0 {
		if err := e.Prepare(samples[0].X.Shape()); err != nil {
			return Metrics{}, err
		}
	}
	return evalSetOn(e.pool, samples, shift, e.PredictOn)
}

// PredictProbs scores every input in parallel and returns the hotspot
// probabilities in input order.
func (e *Evaluator) PredictProbs(xs []*tensor.Tensor) ([]float64, error) {
	if len(xs) > 0 {
		if err := e.Prepare(xs[0].Shape()); err != nil { //hsd:cold engines compile once per model load or input-shape change, not per batch
			return nil, err
		}
	}
	return parallel.Map(e.pool, len(xs), func(worker, i int) (float64, error) {
		return e.PredictOn(worker, xs[i])
	})
}
