package nn

import (
	"fmt"
	"math"

	"hotspot/internal/tensor"
)

// Softmax returns the softmax distribution of a logit vector, computed with
// the max-subtraction trick for numerical stability.
func Softmax(logits *tensor.Tensor) (*tensor.Tensor, error) {
	if logits.Rank() != 1 || logits.Len() == 0 {
		return nil, fmt.Errorf("nn: softmax expects a non-empty vector, got %v", logits.Shape())
	}
	out := logits.Clone()
	m := out.Max()
	sum := 0.0
	for i, v := range out.Data() {
		e := math.Exp(v - m)
		out.Data()[i] = e
		sum += e
	}
	for i := range out.Data() {
		out.Data()[i] /= sum
	}
	return out, nil
}

// SoftmaxCrossEntropy computes the cross-entropy loss between softmax(logits)
// and a target distribution (Equations (6)–(7)), supporting soft targets —
// the paper's biased learning sets the non-hotspot target to [1−ε, ε].
// It returns the loss and dL/dlogits = softmax(logits) − target.
func SoftmaxCrossEntropy(logits, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if logits.Rank() != 1 || target.Rank() != 1 || logits.Len() != target.Len() {
		return 0, nil, fmt.Errorf("nn: cross-entropy shape mismatch %v vs %v", logits.Shape(), target.Shape())
	}
	tsum := 0.0
	for _, v := range target.Data() {
		if v < 0 {
			return 0, nil, fmt.Errorf("nn: cross-entropy target has negative entry %v", v)
		}
		tsum += v
	}
	if math.Abs(tsum-1) > 1e-9 {
		return 0, nil, fmt.Errorf("nn: cross-entropy target sums to %v, want 1", tsum)
	}
	probs, err := Softmax(logits)
	if err != nil {
		return 0, nil, err
	}
	loss := 0.0
	for i, t := range target.Data() {
		if t == 0 {
			continue // lim x→0 x·log x = 0 (Equation (8))
		}
		loss -= float64(t * math.Log(probs.Data()[i]))
	}
	grad := probs.Clone()
	if err := grad.Sub(target); err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}
