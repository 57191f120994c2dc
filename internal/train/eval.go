package train

import (
	"fmt"
	"math"

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
// its replica exclusively for the duration of the call (inference mutates
// layer caches). Predictions land in index-addressed slots, so the folded
// counts — and with them every derived metric — are identical under any
// worker count.
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

// Evaluator fans inference for one network across a worker pool. It owns
// Size−1 replicas whose weights are re-synced from the wrapped network at
// the start of every call, so it stays valid across training steps. The
// wrapped network itself serves worker 0. Not safe for concurrent use; the
// zero value is not usable — build one with NewEvaluator.
type Evaluator struct {
	nets []*nn.Network // nets[0] is the wrapped network
	pool *parallel.Pool

	// engines[w] is worker w's compiled fused inference plan, or nil until
	// the first evaluation (or EnsureFused) compiles them. Engines alias
	// their network's parameter tensors, and sync copies weights in place,
	// so compiled plans stay current across training steps for free.
	engines  []*fused.Engine
	fusedOff bool // SetFused(false) pins the layer-by-layer path
	fusedErr bool // compilation failed once; the layer stack won't change, don't retry
}

// NewEvaluator builds an evaluator over net with the given worker count
// (0 = parallel.Default()).
func NewEvaluator(net *nn.Network, workers int) (*Evaluator, error) {
	pool := parallel.New(workers)
	nets := make([]*nn.Network, pool.Size())
	nets[0] = net
	for i := 1; i < len(nets); i++ {
		r, err := net.Clone()
		if err != nil {
			return nil, err
		}
		nets[i] = r
	}
	return &Evaluator{nets: nets, pool: pool}, nil
}

// Workers returns the evaluator's worker count.
func (e *Evaluator) Workers() int { return e.pool.Size() }

func (e *Evaluator) sync() error {
	for _, r := range e.nets[1:] {
		if err := copyWeights(r, e.nets[0]); err != nil {
			return err
		}
	}
	return nil
}

// EnsureFused compiles one fused inference engine per worker for inputs of
// exactly inShape, replacing any engines compiled for a different shape.
// It returns the compile error when the network has layers the fused
// engine cannot execute; the evaluator then keeps using the layer-by-layer
// path, which is always correct. Compilation is not safe concurrently with
// evaluation — call it between evaluations (EvalSet and PredictProbs do,
// lazily, before fanning out).
func (e *Evaluator) EnsureFused(inShape []int) error {
	if e.fusedOff {
		return nil
	}
	if e.engines != nil && sameDims(e.engines[0].InShape(), inShape) {
		return nil
	}
	engines := make([]*fused.Engine, len(e.nets))
	for i, n := range e.nets {
		eng, err := fused.Compile(n, inShape)
		if err != nil {
			e.fusedErr = true
			return err
		}
		engines[i] = eng
	}
	e.engines = engines
	return nil
}

// FusedActive reports whether compiled fused engines are serving
// predictions (inputs of other shapes still fall back per sample).
func (e *Evaluator) FusedActive() bool { return e.engines != nil }

// SetFused enables (default) or disables the fused inference path. Both
// paths produce bit-identical probabilities; disabling is an escape hatch
// for debugging and for apples-to-apples benchmarking.
func (e *Evaluator) SetFused(on bool) {
	e.fusedOff = !on
	if !on {
		e.engines = nil
	} else {
		e.fusedErr = false
	}
}

// ensureFusedFor lazily compiles engines for the first sample's shape.
// Failure is not an error here: unfusable networks simply stay layered.
func (e *Evaluator) ensureFusedFor(x *tensor.Tensor) {
	if e.fusedOff || e.fusedErr {
		return
	}
	_ = e.EnsureFused(x.Shape()) //hsd:cold engine compilation runs once per model reload or input-shape change, not per sample
}

// Prepare re-syncs the worker replicas from the wrapped network and
// (lazily, fusable networks only) compiles fused engines for inputs of
// inShape. Callers that drive their own fan-out over PredictOn — the
// full-layout scan engine scores millions of windows without
// materializing a []*tensor.Tensor batch — call it once per pass, exactly
// the work EvalSet and PredictProbs do at the top of every call.
func (e *Evaluator) Prepare(inShape []int) error {
	if err := e.sync(); err != nil {
		return err
	}
	if e.fusedOff || e.fusedErr {
		return nil
	}
	// Compilation failure is not an error: unfusable networks keep the
	// always-correct layered path (Prepare itself is never hot-reachable —
	// it runs on the orchestrating goroutine before a pass fans out).
	_ = e.EnsureFused(inShape)
	return nil
}

// PredictOn scores one sample on worker w's replica (w in [0, Workers())).
// The caller owns the fan-out: each worker index must be used by at most
// one goroutine at a time, and Prepare must have run since the wrapped
// network's weights last changed. Probabilities are bit-identical to
// PredictProbs over the same inputs.
//
//hsd:hotpath
func (e *Evaluator) PredictOn(worker int, x *tensor.Tensor) (float64, error) {
	return e.predictOn(worker, x)
}

// predictOn scores one sample on worker w's replica: the fused engine when
// one is compiled and the shape matches, the layer-by-layer network
// otherwise. The two paths are bit-identical (fused parity contract), so
// mixing them per sample cannot change any prediction.
//
// It is a hot-path root in its own right because it runs as a parallel
// worker body: the func-value hop through parallel.Map hides it from the
// callers' reachability walks.
//
//hsd:hotpath
func (e *Evaluator) predictOn(worker int, x *tensor.Tensor) (float64, error) {
	if e.engines != nil {
		eng := e.engines[worker]
		if eng.Accepts(x) {
			out, err := eng.Forward(x)
			if err != nil {
				return 0, err
			}
			return probHot(out)
		}
	}
	return PredictProb(e.nets[worker], x)
}

// probHot converts the classifier's two logits to the hotspot softmax
// probability y(1) in nn.Softmax's exact operation order (running max,
// exp of shifted logits, sequential sum, one divide), so the fused path
// returns bit-identical probabilities to PredictProb.
func probHot(out []float64) (float64, error) {
	if len(out) != 2 {
		return 0, fmt.Errorf("train: classifier emitted %d outputs, want 2", len(out))
	}
	m := out[0]
	if out[1] > m {
		m = out[1]
	}
	e0 := math.Exp(out[0] - m)
	e1 := math.Exp(out[1] - m)
	sum := 0.0
	sum += e0
	sum += e1
	return e1 / sum, nil
}

// sameDims reports whether two shape slices are identical.
func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, d := range a {
		if d != b[i] {
			return false
		}
	}
	return true
}

// EvalSet computes Metrics over a sample set with the given boundary
// shift, fanning samples across the pool. Results are identical to the
// serial EvalSet.
func (e *Evaluator) EvalSet(samples []Sample, shift float64) (Metrics, error) {
	if err := e.sync(); err != nil {
		return Metrics{}, err
	}
	e.ensureFusedFor(samples[0].X)
	return evalSetOn(e.pool, samples, shift, e.predictOn)
}

// PredictProbs scores every input in parallel and returns the hotspot
// probabilities in input order.
func (e *Evaluator) PredictProbs(xs []*tensor.Tensor) ([]float64, error) {
	if err := e.sync(); err != nil { //hsd:cold weight resync runs once per scoring call, amortized across the batch
		return nil, err
	}
	if len(xs) > 0 {
		e.ensureFusedFor(xs[0])
	}
	return parallel.Map(e.pool, len(xs), func(worker, i int) (float64, error) {
		return e.predictOn(worker, xs[i])
	})
}
