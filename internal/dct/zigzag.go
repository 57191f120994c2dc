package dct

import (
	"fmt"
	"sync"
)

// zigzagCache memoizes scan orders per block size.
var zigzagCache sync.Map // [2]int -> []int

// ZigZagOrder returns the JPEG zig-zag scan order for an h×w block: a
// permutation p of 0..h*w-1 such that p[i] is the row-major index of the
// i-th coefficient in scan order. Coefficients are visited along
// anti-diagonals of increasing u+v, alternating direction, so low
// frequencies come first — exactly the order Equation (1) of the paper uses
// before truncation.
func ZigZagOrder(h, w int) []int {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dct: zig-zag block must be positive, got %dx%d", h, w))
	}
	key := [2]int{h, w}
	if v, ok := zigzagCache.Load(key); ok { //hsd:allow hotlint one atomic read of an immutable memo table; contention-free after first use
		return v.([]int)
	}
	order := make([]int, 0, h*w)
	for s := 0; s <= h+w-2; s++ {
		if s%2 == 0 {
			// Walk up-right: u decreasing.
			u := s
			if u > h-1 {
				u = h - 1
			}
			for ; u >= 0 && s-u < w; u-- {
				order = append(order, u*w+(s-u))
			}
		} else {
			// Walk down-left: u increasing.
			u := s - (w - 1)
			if u < 0 {
				u = 0
			}
			for ; u <= s && u < h; u++ {
				order = append(order, u*w+(s-u))
			}
		}
	}
	zigzagCache.Store(key, order) //hsd:allow hotlint first-use table build; duplicate stores race benignly with identical values
	return order
}

// ZigZagUnflatten inverts the zig-zag scan of an h×w block. If the input has fewer than h*w
// entries (a truncated scan), the missing high-frequency coefficients are
// zero-filled, which is exactly the decoder side of Equation (2).
func ZigZagUnflatten(scan []float64, h, w int) ([]float64, error) {
	if len(scan) > h*w {
		return nil, fmt.Errorf("dct: zig-zag scan length %d exceeds block %dx%d", len(scan), h, w)
	}
	order := ZigZagOrder(h, w)
	out := make([]float64, h*w)
	for i, v := range scan {
		out[order[i]] = v
	}
	return out, nil
}

// CoefficientCorner returns the smallest square side s such that the first k
// zig-zag entries of an n×n block all lie inside the top-left s×s corner.
// Used to size truncated DCTs.
func CoefficientCorner(n, k int) int {
	if k <= 0 {
		return 1
	}
	if k > n*n {
		k = n * n
	}
	order := ZigZagOrder(n, n)
	s := 1
	for i := 0; i < k; i++ {
		u, v := order[i]/n, order[i]%n
		if u+1 > s {
			s = u + 1
		}
		if v+1 > s {
			s = v + 1
		}
	}
	return s
}
