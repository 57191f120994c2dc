package active

import (
	"math"
	"sort"

	"hotspot/internal/feature"
	"hotspot/internal/parallel"
	"hotspot/internal/tensor"
)

// mix64 is the splitmix64 finalizer over (key, v): nearby inputs give
// uncorrelated outputs, and the value depends only on (key, v) — never on
// worker assignment — which is what keeps round-keyed tie-breaking
// bit-identical under any worker count (the same construction as
// train.sampleSeed).
func mix64(key, v uint64) uint64 {
	z := key + (v+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// candidate is one unlabeled pool entry staged for selection.
type candidate struct {
	pool    int       // index into the shared pool
	margin  float64   // |p − 0.5|, the uncertainty margin
	tie     uint64    // round-keyed splitmix64 tie token
	x       []float64 // flat feature vector (tensor data, shared storage)
	minDist float64   // squared distance to the nearest selected center
	taken   bool      // already selected this round
}

// selector owns the candidate scratch of one loop so repeated rounds
// reallocate nothing.
type selector struct {
	pool *parallel.Pool
	cand []candidate
}

func newSelector(pool *parallel.Pool) *selector {
	return &selector{pool: pool}
}

// SelectRandom returns up to batch pool indices in round-keyed uniform
// order — the random-sampling baseline the active curves are compared
// against. Deterministic for a given (roundKey, unlabeled) and trivially
// worker-independent.
func SelectRandom(unlabeled []int, batch int, roundKey uint64) []int {
	ord := make([]int, len(unlabeled))
	copy(ord, unlabeled)
	sort.Slice(ord, func(i, j int) bool {
		ti, tj := mix64(roundKey, uint64(ord[i])), mix64(roundKey, uint64(ord[j]))
		if ti != tj {
			return ti < tj
		}
		return ord[i] < ord[j]
	})
	if batch < len(ord) {
		ord = ord[:batch]
	}
	return ord
}

// selectHybrid returns up to batch pool indices chosen by hybrid
// uncertainty + diversity: the candidates most uncertain by margin
// |p − 0.5| are shortlisted, then a greedy k-center (farthest-first)
// traversal over their cached feature tensors picks the batch, starting
// from the most uncertain candidate and repeatedly adding the candidate
// farthest (squared Euclidean) from the selected set.
//
// unlabeled lists pool indices; probs[j] is the hotspot probability of
// pool clip unlabeled[j]; xs is indexed by pool index. candidates bounds
// the shortlist (0 means 4×batch; always at least batch). Every ordering
// is deterministic under any worker count: margins compare by value, exact
// ties (bit-equal margins or distances) fall back to the round-keyed
// splitmix64 token and then the pool index, and the parallel distance
// updates write only index-owned slots with the argmax reduced in index
// order on the calling goroutine.
func (s *selector) selectHybrid(xs []*tensor.Tensor, probs []float64, unlabeled []int, batch, candidates int, roundKey uint64) ([]int, error) {
	if batch <= 0 || len(unlabeled) == 0 {
		return nil, nil
	}
	// Stage every unlabeled entry, then shortlist by uncertainty.
	if cap(s.cand) < len(unlabeled) {
		s.cand = make([]candidate, len(unlabeled))
	}
	s.cand = s.cand[:len(unlabeled)]
	for j, pi := range unlabeled {
		s.cand[j] = candidate{
			pool:    pi,
			margin:  math.Abs(probs[j] - 0.5),
			tie:     mix64(roundKey, uint64(pi)),
			x:       xs[pi].Data(),
			minDist: math.Inf(1),
		}
	}
	sort.Slice(s.cand, func(i, j int) bool {
		a, b := &s.cand[i], &s.cand[j]
		if a.margin < b.margin {
			return true
		}
		if b.margin < a.margin {
			return false
		}
		if a.tie != b.tie {
			return a.tie < b.tie
		}
		return a.pool < b.pool
	})
	if batch >= len(s.cand) {
		// The whole remaining pool fits: no diversity decision to make.
		out := make([]int, len(s.cand))
		for i := range s.cand {
			out[i] = s.cand[i].pool
		}
		return out, nil
	}
	m := candidates
	if m <= 0 {
		m = 4 * batch
	}
	if m < batch {
		m = batch
	}
	if m > len(s.cand) {
		m = len(s.cand)
	}
	s.cand = s.cand[:m]

	// Greedy k-center (farthest-first) over the shortlist. The first
	// center is the most uncertain candidate; each following center is the
	// candidate with the largest squared distance to the selected set.
	selected := make([]int, 0, batch)
	s.cand[0].taken = true
	selected = append(selected, s.cand[0].pool)
	last := 0
	for len(selected) < batch {
		center := s.cand[last].x
		// Fold the newest center into every candidate's min distance.
		// Each item writes only its own slot, so the pass is bit-identical
		// under any worker count.
		if err := s.pool.For(len(s.cand), func(_, i int) error {
			return s.updateMinDist(i, center)
		}); err != nil {
			return nil, err
		}
		// Argmax in index order on this goroutine: strictly greater wins;
		// bit-equal distances fall back to the tie token, then pool index.
		best := -1
		for i := range s.cand {
			if s.cand[i].taken {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			di, db := s.cand[i].minDist, s.cand[best].minDist
			if di > db {
				best = i
				continue
			}
			if db > di {
				continue
			}
			if s.cand[i].tie != s.cand[best].tie {
				if s.cand[i].tie < s.cand[best].tie {
					best = i
				}
				continue
			}
			if s.cand[i].pool < s.cand[best].pool {
				best = i
			}
		}
		s.cand[best].taken = true
		selected = append(selected, s.cand[best].pool)
		last = best
	}
	return selected, nil
}

// updateMinDist folds the newest center into candidate i's distance to
// the selected set. It runs as a parallel worker body — the func-value
// hop through Pool.For hides it from callers' reachability walks — so it
// is a hot-path root in its own right: one call per (candidate, center)
// pair, the inner loop of every selection round.
//
//hsd:hotpath
func (s *selector) updateMinDist(i int, center []float64) error {
	c := &s.cand[i]
	if c.taken {
		return nil
	}
	d, err := feature.SqDist(c.x, center)
	if err != nil {
		return err
	}
	if d < c.minDist {
		c.minDist = d
	}
	return nil
}
