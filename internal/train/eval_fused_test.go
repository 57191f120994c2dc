package train

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// layeredEvalSet is the layered reference for Evaluator.EvalSet: every
// sample through PredictProb, serially, folded by metricsOf.
func layeredEvalSet(net *nn.Network, samples []Sample, shift float64) (Metrics, error) {
	if len(samples) == 0 {
		return Metrics{}, errEmptySet
	}
	probs := make([]float64, len(samples))
	for i, s := range samples {
		p, err := PredictProb(net, s.X)
		if err != nil {
			return Metrics{}, err
		}
		probs[i] = p
	}
	return metricsOf(samples, probs, shift), nil
}

// TestEvaluatorFusedBitParity pins the evaluator's fused engines against
// the serial layered reference at the bit level: PredictProbs must equal
// PredictProb per sample, and EvalSet must equal the serial EvalSet, at
// every worker count. (TestEvaluatorMatchesEvalSet already compares
// metrics; this test asserts the probabilities themselves.)
func TestEvaluatorFusedBitParity(t *testing.T) {
	samples := imbalancedToy(40, 53)
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	net := dropoutNet(t, 59)
	layered := make([]float64, len(xs))
	for i, x := range xs {
		p, err := PredictProb(net, x)
		if err != nil {
			t.Fatal(err)
		}
		layered[i] = p
	}
	mLayered, err := layeredEvalSet(net, samples, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 4} {
		ev, err := NewEvaluator(net, workers)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := ev.PredictProbs(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fused {
			if math.Float64bits(fused[i]) != math.Float64bits(layered[i]) {
				t.Fatalf("workers=%d sample %d: fused %v != layered %v",
					workers, i, fused[i], layered[i])
			}
		}
		mFused, err := ev.EvalSet(samples, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if mFused != mLayered {
			t.Fatalf("workers=%d: fused metrics %+v != layered %+v", workers, mFused, mLayered)
		}
	}
}

// TestEvaluatorShapeMismatch scores a mixed-shape batch: the engines are
// compiled for the first sample's shape, so an off-shape sample fails with
// the engine's shape error instead of being scored on another path. The
// paper net happens to accept a (2,6,6) input too (its pools drop the odd
// edges and land on the same fc1 width), so a batch of that shape
// recompiles the engines and must match the layered path bit for bit.
func TestEvaluatorShapeMismatch(t *testing.T) {
	net := dropoutNet(t, 61)
	good := randToyInput(2, 4, 4, 71)
	odd := randToyInput(2, 6, 6, 73)
	ev, err := NewEvaluator(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.PredictProbs([]*tensor.Tensor{good, odd, good}); err == nil ||
		!strings.Contains(err.Error(), "engine compiled for [2 4 4]") {
		t.Fatalf("mixed-shape batch: err %v, want the engine's shape error", err)
	}
	xs := []*tensor.Tensor{odd, odd}
	got, err := ev.PredictProbs(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := PredictProb(net, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d after recompiling: fused %v != layered %v", i, got[i], want)
		}
	}
}

// TestEvaluatorErrors: every way the evaluator can be handed something it
// cannot score fails with a named error rather than a panic or a
// plausible-looking probability.
func TestEvaluatorErrors(t *testing.T) {
	net := dropoutNet(t, 67)
	ev, err := NewEvaluator(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalSet(nil, 0); err == nil || !strings.Contains(err.Error(), "empty evaluation set") {
		t.Fatalf("empty EvalSet: err %v", err)
	}
	if _, err := ev.PredictOn(0, randToyInput(2, 4, 4, 1)); err == nil || !strings.Contains(err.Error(), "before Prepare") {
		t.Fatalf("PredictOn before Prepare: err %v", err)
	}
	// An 8×8 input leaves a 2×2 map at fc1, which the net cannot take.
	if err := ev.Prepare([]int{2, 8, 8}); err == nil || !strings.Contains(err.Error(), "fc1") {
		t.Fatalf("incompatible shape: err %v", err)
	}
	// A three-logit head compiles but is not a hotspot classifier.
	dense, err := nn.NewDense("fc", 2*4*4, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewEvaluator(nn.NewNetwork(dense), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := three.Prepare([]int{2, 4, 4}); err == nil || !strings.Contains(err.Error(), "emits 3 outputs, want 2") {
		t.Fatalf("three-logit head: err %v", err)
	}
}

// TestEvaluatorsFusedConcurrent runs several fused evaluators over one
// shared network at the same time, each fanning across its own pool.
// Under -race this pins the engine ownership story: one engine per worker,
// arenas never shared, the network and its weight aliases read-only during
// evaluation.
func TestEvaluatorsFusedConcurrent(t *testing.T) {
	base := dropoutNet(t, 79)
	samples := imbalancedToy(30, 83)
	const evals = 4
	var wg sync.WaitGroup
	results := make([]Metrics, evals)
	errs := make([]error, evals)
	for g := 0; g < evals; g++ {
		ev, err := NewEvaluator(base, 3)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, ev *Evaluator) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				m, err := ev.EvalSet(samples, 0)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = m
			}
		}(g, ev)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("evaluator %d: %v", g, err)
		}
	}
	want, err := layeredEvalSet(base, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	for g, m := range results {
		if m != want {
			t.Fatalf("evaluator %d: metrics %+v != serial %+v", g, m, want)
		}
	}
}

// TestEvaluatorChunkParity pins PredictProbs and EvalSet, which score
// contiguous chunks of min(4, ⌈N/workers⌉) samples per engine call,
// against the serial layered PredictProb and EvalSet by Float64bits, at
// set sizes around the chunk and tile widths and at 1, 2 and 3 workers.
func TestEvaluatorChunkParity(t *testing.T) {
	all := imbalancedToy(33, 89)
	net := dropoutNet(t, 97)
	for _, n := range []int{1, 3, 4, 5, 9, 33} {
		samples := all[:n]
		xs := make([]*tensor.Tensor, n)
		want := make([]float64, n)
		for i := range samples {
			xs[i] = samples[i].X
			p, err := PredictProb(net, xs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = p
		}
		mWant, err := layeredEvalSet(net, samples, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			ev, err := NewEvaluator(net, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.PredictProbs(xs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("N=%d workers=%d sample %d: fused %v != layered %v", n, workers, i, got[i], want[i])
				}
			}
			m, err := ev.EvalSet(samples, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if m != mWant {
				t.Fatalf("N=%d workers=%d: fused metrics %+v != layered %+v", n, workers, m, mWant)
			}
		}
	}
}

// TestEvaluatorShapeErrorLowestIndex: with wrong-shape inputs at indices
// 5 and 7 of nine, PredictProbs and EvalSet fail naming index 5 at every
// worker count, though the chunks run in parallel.
func TestEvaluatorShapeErrorLowestIndex(t *testing.T) {
	samples := imbalancedToy(9, 101)
	samples[5].X = randToyInput(2, 6, 6, 103)
	samples[7].X = randToyInput(2, 5, 5, 107)
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	net := dropoutNet(t, 109)
	const want = "sample 5 shape [2 6 6], engine compiled for [2 4 4]"
	for _, workers := range []int{1, 2, 3} {
		ev, err := NewEvaluator(net, workers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.PredictProbs(xs); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d PredictProbs: err %v, want %q", workers, err, want)
		}
		if _, err := ev.EvalSet(samples, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d EvalSet: err %v, want %q", workers, err, want)
		}
	}
}

// TestPredictBatchOn scores nine inputs in one call (three engine calls
// of at most four), bit for bit against PredictProb and with no
// allocation, and rejects a call before Prepare and a probs slice of the
// wrong length.
func TestPredictBatchOn(t *testing.T) {
	samples := imbalancedToy(9, 113)
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	net := dropoutNet(t, 127)
	ev, err := NewEvaluator(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, len(xs))
	if err := ev.PredictBatchOn(1, xs, probs); err == nil || !strings.Contains(err.Error(), "before Prepare") {
		t.Fatalf("PredictBatchOn before Prepare: err %v", err)
	}
	if err := ev.Prepare(xs[0].Shape()); err != nil {
		t.Fatal(err)
	}
	if err := ev.PredictBatchOn(1, xs, probs[:8]); err == nil || !strings.Contains(err.Error(), "8 probability slots for 9 inputs") {
		t.Fatalf("short probs: err %v", err)
	}
	if err := ev.PredictBatchOn(1, xs, probs); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := PredictProb(net, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(probs[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: batch %v != layered %v", i, probs[i], want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ev.PredictBatchOn(0, xs, probs); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictBatchOn allocates %.1f times per call, want 0", allocs)
	}
}

// TestPredictGridOnFullRow scores whole window rows off a Grid — nine
// windows, so a row takes engine calls of four, four and one — bit for bit
// against PredictProb on each window's input tensor, and checks a full row
// allocates nothing.
func TestPredictGridOnFullRow(t *testing.T) {
	const c, n, nbx, nby = 2, 4, 12, 6
	net := dropoutNet(t, 131)
	ev, err := NewEvaluator(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.NewGrid(nbx, nby); err == nil || !strings.Contains(err.Error(), "before Prepare") {
		t.Fatalf("NewGrid before Prepare: err %v", err)
	}
	if err := ev.Prepare([]int{c, n, n}); err != nil {
		t.Fatal(err)
	}
	g, err := ev.NewGrid(nbx, nby)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(137))
	die := make([]float64, c*nby*nbx) // value (ch, by, bx) at (ch·nby + by)·nbx + bx
	for i := range die {
		die[i] = rng.NormFloat64()
	}
	for by := 0; by < nby; by++ {
		for bx := 0; bx < nbx; bx++ {
			cell, stride := g.Cell(bx, by)
			for ch := 0; ch < c; ch++ {
				cell[ch*stride] = die[(ch*nby+by)*nbx+bx]
			}
		}
	}
	g.Update(0, 0, nbx, nby)
	probs := make([]float64, nbx-n+1)
	for wy := 0; wy <= nby-n; wy++ {
		if err := ev.PredictGridOn(wy%2, g, 0, wy, probs); err != nil {
			t.Fatal(err)
		}
		for wx, got := range probs {
			x := tensor.New(c, n, n)
			for ch := 0; ch < c; ch++ {
				for y := 0; y < n; y++ {
					copy(x.Data()[(ch*n+y)*n:(ch*n+y+1)*n], die[(ch*nby+wy+y)*nbx+wx:])
				}
			}
			want, err := PredictProb(net, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window (%d, %d): grid %v != layered %v", wx, wy, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ev.PredictGridOn(1, g, 0, 1, probs); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictGridOn allocates %.1f times per row, want 0", allocs)
	}
}

// randToyInput builds a deterministic random tensor for shape tests.
func randToyInput(c, h, w int, seed int64) *tensor.Tensor {
	x := tensor.New(c, h, w)
	rng := newTestRNG(seed)
	for i := range x.Data() {
		x.Data()[i] = rng()
	}
	return x
}

// newTestRNG returns a tiny deterministic float generator (xorshift-based)
// so shape-test inputs don't depend on math/rand stream coupling.
func newTestRNG(seed int64) func() float64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 500.0
	}
}
