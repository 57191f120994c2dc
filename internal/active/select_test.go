package active

import (
	"math/rand"
	"testing"

	"hotspot/internal/parallel"
	"hotspot/internal/tensor"
)

// selectHybrid runs one selection on a fresh selector over a pool of the
// given worker count, as the loop's selector runs each round.
func selectHybrid(xs []*tensor.Tensor, probs []float64, unlabeled []int, batch, candidates int, roundKey uint64, workers int) ([]int, error) {
	return newSelector(parallel.New(workers)).selectHybrid(xs, probs, unlabeled, batch, candidates, roundKey)
}

// synthTensors builds n deterministic feature tensors of the given shape,
// each from its own index-keyed stream.
func synthTensors(n int, shape ...int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(i)*0x9e3779b9 + 1))
		t := tensor.New(shape...)
		d := t.Data()
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		out[i] = t
	}
	return out
}

func synthProbs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectHybridWorkerParity: the selected sequence is bit-identical
// under worker counts 1, 4 and 8 — the selection half of the loop's
// determinism contract. Each worker count keeps one selector for two
// rounds, as the loop does, so the second round runs on reused scratch.
func TestSelectHybridWorkerParity(t *testing.T) {
	const n, batch = 60, 8
	xs := synthTensors(n, 4, 3, 3)
	probs := synthProbs(n, 42)
	rounds := func(workers int) [][]int {
		sel := newSelector(parallel.New(workers))
		unlabeled := indices(n)
		var picks [][]int
		for round := uint64(0); round < 2; round++ {
			p := make([]float64, len(unlabeled))
			for j, i := range unlabeled {
				p[j] = probs[i]
			}
			got, err := sel.selectHybrid(xs, p, unlabeled, batch, 0, mix64(7, round))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != batch {
				t.Fatalf("workers=%d round %d: selected %d, want %d", workers, round, len(got), batch)
			}
			picks = append(picks, got)
			taken := make(map[int]bool)
			for _, i := range got {
				taken[i] = true
			}
			var rest []int
			for _, i := range unlabeled {
				if !taken[i] {
					rest = append(rest, i)
				}
			}
			unlabeled = rest
		}
		return picks
	}
	want := rounds(1)
	for _, workers := range []int{4, 8} {
		for r, got := range rounds(workers) {
			if !equalInts(got, want[r]) {
				t.Fatalf("workers=%d round %d selected %v, workers=1 selected %v", workers, r, got, want[r])
			}
		}
	}
}

// TestSelectHybridStartsMostUncertain: the first pick is the candidate
// with the smallest |p−0.5| margin.
func TestSelectHybridStartsMostUncertain(t *testing.T) {
	const n = 20
	xs := synthTensors(n, 2, 2, 2)
	probs := synthProbs(n, 3)
	probs[13] = 0.5 // exactly on the boundary: margin 0, strictly smallest
	sel, err := selectHybrid(xs, probs, indices(n), 4, 0, mix64(1, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 13 {
		t.Fatalf("first pick %d, want the zero-margin candidate 13 (selection %v)", sel[0], sel)
	}
}

// TestSelectHybridDuplicateClips: an exact duplicate of an already
// selected clip has k-center distance zero, so it is never chosen while a
// distinct candidate remains — and the tie handling stays deterministic
// under any worker count when only duplicates are left.
func TestSelectHybridDuplicateClips(t *testing.T) {
	const n = 12
	xs := synthTensors(n, 2, 2, 2)
	// Clips 1..5 are bit-exact duplicates of clip 0.
	for i := 1; i <= 5; i++ {
		copy(xs[i].Data(), xs[0].Data())
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.5 // equal margins: uncertainty does not separate them
	}
	want, err := selectHybrid(xs, probs, indices(n), 9, 0, mix64(99, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate group contributes exactly one member to the first 7
	// picks (6 distinct vectors + the group = 7 distinct positions).
	dup := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	fromGroup := 0
	for _, pi := range want[:7] {
		if dup[pi] {
			fromGroup++
		}
	}
	if fromGroup != 1 {
		t.Fatalf("first 7 picks took %d from the duplicate group, want exactly 1: %v", fromGroup, want)
	}
	for _, workers := range []int{4, 8} {
		got, err := selectHybrid(xs, probs, indices(n), 9, 0, mix64(99, 0), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, want) {
			t.Fatalf("workers=%d selected %v, workers=1 selected %v", workers, got, want)
		}
	}
}

// TestSelectHybridTieMargins: with every margin bit-equal, ordering falls
// to the round-keyed tie tokens — deterministic per key, and different
// keys reshuffle the shortlist.
func TestSelectHybridTieMargins(t *testing.T) {
	const n = 30
	xs := synthTensors(n, 2, 2, 2)
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.7 // identical margins everywhere
	}
	a, err := selectHybrid(xs, probs, indices(n), 5, 10, mix64(5, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectHybrid(xs, probs, indices(n), 5, 10, mix64(5, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(a, b) {
		t.Fatalf("same round key selected %v then %v", a, b)
	}
	c, err := selectHybrid(xs, probs, indices(n), 5, 10, mix64(6, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if equalInts(a, c) {
		t.Fatalf("different round keys picked the identical sequence %v (tie tokens not keyed?)", a)
	}
}

// TestSelectHybridBatchCoversPool: a batch at least as large as the
// remaining pool selects everything, in uncertainty order.
func TestSelectHybridBatchCoversPool(t *testing.T) {
	const n = 6
	xs := synthTensors(n, 2, 2, 2)
	probs := synthProbs(n, 8)
	sel, err := selectHybrid(xs, probs, indices(n), 10, 0, mix64(2, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != n {
		t.Fatalf("selected %d, want the whole pool (%d)", len(sel), n)
	}
	seen := make(map[int]bool, n)
	for _, pi := range sel {
		seen[pi] = true
	}
	if len(seen) != n {
		t.Fatalf("selection %v repeats an index", sel)
	}
}

// TestSelectRandom: round-keyed, deterministic, a permutation prefix, and
// reshuffled by the key.
func TestSelectRandom(t *testing.T) {
	unlabeled := []int{3, 7, 11, 19, 23, 31, 40, 41}
	a := SelectRandom(unlabeled, 4, mix64(1, 0))
	b := SelectRandom(unlabeled, 4, mix64(1, 0))
	if !equalInts(a, b) {
		t.Fatalf("same key: %v vs %v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("selected %d, want 4", len(a))
	}
	allowed := make(map[int]bool)
	for _, pi := range unlabeled {
		allowed[pi] = true
	}
	for _, pi := range a {
		if !allowed[pi] {
			t.Fatalf("selection %v strays outside the unlabeled set", a)
		}
	}
	c := SelectRandom(unlabeled, 4, mix64(2, 0))
	if equalInts(a, c) {
		t.Fatalf("different keys picked the identical sequence %v", a)
	}
	all := SelectRandom(unlabeled, 100, mix64(1, 0))
	if len(all) != len(unlabeled) {
		t.Fatalf("oversized batch selected %d, want %d", len(all), len(unlabeled))
	}
}
