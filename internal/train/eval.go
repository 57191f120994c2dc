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

// PredictProb runs one sample through the network's layered forward in
// inference mode and returns the softmax probability of the hotspot class
// (y(1) in the paper's notation). Production scores through an Evaluator;
// this is the layered reference its parity tests and perfbench's serve
// gate compare against.
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

// errEmptySet rejects an evaluation over no samples.
var errEmptySet = errors.New("train: empty evaluation set")

// metricsOf folds per-sample hotspot probabilities, in sample order, into
// Metrics at the given boundary shift. An empty set has accuracy 0.
func metricsOf(samples []Sample, probs []float64, shift float64) Metrics {
	var m Metrics
	for i, p := range probs {
		pred := Decide(p, shift)
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
	if len(samples) > 0 {
		m.Accuracy = float64(m.TP+m.TN) / float64(len(samples))
	}
	return m
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
	// workers[w] is worker w's plan for one input shape and its scratch;
	// nil until the first Prepare.
	workers []evalWorker
}

// evalWorker is one worker's compiled engine and the logits of the inputs
// it scores in one engine call: tensor.TileRows inputs, or a window row of
// the widest Grid NewGrid built.
type evalWorker struct {
	eng    *fused.Engine
	logits []float64
}

// NewEvaluator builds an evaluator over net with the given worker count
// (0 = parallel.Default()). Engines compile on the first Prepare.
func NewEvaluator(net *nn.Network, workers int) (*Evaluator, error) {
	return &Evaluator{net: net, pool: parallel.New(workers)}, nil
}

// Workers returns the evaluator's worker count.
func (e *Evaluator) Workers() int { return e.pool.Size() }

// errUnprepared rejects PredictOn and PredictBatchOn before any Prepare
// compiled engines.
var errUnprepared = errors.New("train: evaluator used before Prepare")

// Prepare compiles one fused engine per worker for inputs of exactly
// inShape; engines already compiled for that shape are kept. It is the
// evaluator's only compile point: EvalSet and PredictProbs call it for
// their first input, and callers that drive their own fan-out over
// PredictOn or PredictBatchOn — the full-layout scan engine scores
// millions of windows without materializing a []*tensor.Tensor of them —
// call it once per pass. It fails for a network the fused engine cannot
// run and for one that does not emit the two class logits, keeping any
// engines it already had. Not safe concurrently with evaluation.
func (e *Evaluator) Prepare(inShape []int) error {
	if e.workers != nil && slices.Equal(e.workers[0].eng.InShape(), inShape) {
		return nil
	}
	workers := make([]evalWorker, e.pool.Size())
	for w := range workers {
		eng, err := fused.Compile(e.net, inShape)
		if err != nil {
			return fmt.Errorf("train: evaluator: %w", err)
		}
		if eng.OutLen() != 2 {
			return fmt.Errorf("train: evaluator: classifier emits %d outputs, want 2", eng.OutLen())
		}
		workers[w].eng = eng
		workers[w].logits = make([]float64, 2*tensor.TileRows)
	}
	e.workers = workers
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
	if e.workers == nil {
		return 0, errUnprepared
	}
	out, err := e.workers[worker].eng.Forward(x)
	if err != nil {
		return 0, err
	}
	return probHot(out), nil
}

// PredictBatchOn scores xs on worker w's engine and writes their hotspot
// probabilities to probs, which holds one slot per input: one
// fused.Engine.ForwardBatch call per tensor.TileRows inputs, so the dense
// layers stream their weights once per four inputs. The fan-out contract
// is PredictOn's, and an input of another shape fails with the engine's
// shape error. Probabilities are bit-identical to PredictProb. It
// allocates nothing.
//
//hsd:hotpath
func (e *Evaluator) PredictBatchOn(worker int, xs []*tensor.Tensor, probs []float64) error {
	if e.workers == nil {
		return errUnprepared
	}
	if len(probs) != len(xs) {
		return fmt.Errorf("train: %d probability slots for %d inputs", len(probs), len(xs))
	}
	w := &e.workers[worker]
	for lo := 0; lo < len(xs); lo += tensor.TileRows {
		hi := min(lo+tensor.TileRows, len(xs))
		logits := w.logits[:2*(hi-lo)]
		if err := w.eng.ForwardBatch(logits, xs[lo:hi]); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			probs[i] = probHot(logits[2*(i-lo):])
		}
	}
	return nil
}

// NewGrid builds the fused.Grid of an nbx×nby-block die for the engines
// Prepare compiled: windows of their input shape, scored with
// PredictGridOn on any worker. It sizes every worker's logits for a full
// window row of the die. The network's weights must not change between a
// Grid's Update and the scoring it serves. Not safe concurrently with
// evaluation.
func (e *Evaluator) NewGrid(nbx, nby int) (*fused.Grid, error) {
	if e.workers == nil {
		return nil, errUnprepared
	}
	g, err := fused.NewGrid(e.workers[0].eng, nbx, nby)
	if err != nil {
		return nil, err
	}
	row := 2 * (nbx - e.workers[0].eng.InShape()[2] + 1)
	for w := range e.workers {
		if len(e.workers[w].logits) < row {
			e.workers[w].logits = make([]float64, row)
		}
	}
	return g, nil
}

// PredictGridOn scores the len(probs) consecutive windows of g's row wy
// from window wx on worker w's engine and writes their hotspot
// probabilities to probs. Up to a full window row of the die runs in one
// fused.Engine.ForwardGrid call, so the engine decides its density gates
// once per row, not once per tensor.TileRows windows. The fan-out contract
// is PredictOn's; g must come from NewGrid, and no Update may run
// meanwhile. Probabilities are bit-identical to PredictProb on the
// windows' input tensors. It allocates nothing.
func (e *Evaluator) PredictGridOn(worker int, g *fused.Grid, wx, wy int, probs []float64) error {
	if e.workers == nil {
		return errUnprepared
	}
	w := &e.workers[worker]
	step := len(w.logits) / 2
	for lo := 0; lo < len(probs); lo += step {
		hi := min(lo+step, len(probs))
		logits := w.logits[:2*(hi-lo)]
		if err := w.eng.ForwardGrid(logits, g, wx+lo, wy); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			probs[i] = probHot(logits[2*(i-lo):])
		}
	}
	return nil
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
// shift, scoring the samples as PredictProbs does, so the metrics are the
// same under any worker count.
func (e *Evaluator) EvalSet(samples []Sample, shift float64) (Metrics, error) {
	if len(samples) == 0 {
		return Metrics{}, errEmptySet
	}
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	probs, err := e.PredictProbs(xs)
	if err != nil {
		return Metrics{}, err
	}
	return metricsOf(samples, probs, shift), nil
}

// PredictProbs scores every input and returns the hotspot probabilities in
// input order. The N inputs split into contiguous chunks of
// min(tensor.TileRows, ⌈N/workers⌉), one PredictBatchOn each, fanned
// across the pool, so every worker gets work and no chunk is wider than
// one dot tile. Engines are compiled for the first input's shape, and an
// input of another shape fails with the lowest such index before anything
// is scored.
func (e *Evaluator) PredictProbs(xs []*tensor.Tensor) ([]float64, error) {
	probs := make([]float64, len(xs))
	if len(xs) == 0 {
		return probs, nil
	}
	if err := e.Prepare(xs[0].Shape()); err != nil { //hsd:cold engines compile once per model load or input-shape change, not per batch
		return nil, err
	}
	eng := e.workers[0].eng
	for i, x := range xs {
		if !eng.Accepts(x) {
			return nil, fmt.Errorf("train: sample %d shape %v, engine compiled for %v", i, x.Shape(), eng.InShape())
		}
	}
	size := min(tensor.TileRows, (len(xs)+e.pool.Size()-1)/e.pool.Size())
	err := e.pool.For((len(xs)+size-1)/size, func(worker, c int) error {
		lo, hi := c*size, min((c+1)*size, len(xs))
		return e.PredictBatchOn(worker, xs[lo:hi], probs[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return probs, nil
}
