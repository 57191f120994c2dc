package feature

import "fmt"

// SqDist returns the squared Euclidean distance between two feature
// vectors of equal length, accumulated sequentially in index order so the
// value is bit-identical no matter how callers parallelize over pairs.
//
// It is the pairwise-distance kernel of the active-learning k-center
// selector: one call per (candidate, center) pair over cached zigzag
// feature tensors, which is why it takes raw []float64 (tensor.Data())
// rather than tensors — no per-call unwrapping or shape checks beyond the
// length guard.
//
// It runs as a parallel worker body via the selector's fan-out, so it is
// annotated as a hot-path root in its own right.
//
//hsd:hotpath
func SqDist(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("feature: distance between vectors of length %d and %d", len(a), len(b))
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s, nil
}
