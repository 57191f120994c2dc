// Package nn is the from-scratch neural network substrate: tensors-in,
// tensors-out layers with analytic backpropagation, He initialization,
// softmax cross-entropy with soft targets (required by the paper's biased
// learning), and a Network container with save/load.
//
// Layers process one sample at a time (channels-first (C, H, W) tensors);
// minibatch handling — sampling, gradient averaging, learning-rate decay —
// lives in internal/train. Every layer's Backward is verified against
// numerical differentiation in the package tests.
package nn

import (
	"fmt"

	"hotspot/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam wraps weights w with a zero gradient of the same shape.
func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape()...)}
}

// Layer is one differentiable stage of the network.
type Layer interface {
	// Name returns a human-readable identifier ("conv1-1", "fc2", ...).
	Name() string
	// Forward computes the layer output for one sample. train selects
	// training behaviour (e.g. dropout active). Layers cache what Backward
	// needs, so Forward/Backward pairs must not be interleaved across
	// samples.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients (a worker shadow's layers store them instead;
	// see Network.Shadow).
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (empty for
	// activation/pooling layers).
	Params() []*Param
	// OutputShape returns the output shape for a given input shape, for
	// architecture summaries and validation.
	OutputShape(in []int) ([]int, error)
}

// Network is an ordered stack of layers.
type Network struct {
	layers []Layer
}

// NewNetwork builds a network from layers.
func NewNetwork(layers ...Layer) *Network { return &Network{layers: layers} }

// Layers returns the layer stack.
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs all layers on one sample.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range n.layers {
		x, err = l.Forward(x, train) //hsd:allow hotlint layer polymorphism is the training path's design; inference devirtualizes through the fused engine
		if err != nil {
			return nil, fmt.Errorf("nn: forward through %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// Backward propagates the output gradient back through all layers,
// accumulating every parameter gradient (storing it, on a shadow). Nobody
// reads the gradient with respect to the network input, so a first Conv2D
// layer forms only its parameter gradients.
func (n *Network) Backward(grad *tensor.Tensor) error {
	var err error
	for i := len(n.layers) - 1; i >= 0; i-- {
		if c, ok := n.layers[i].(*Conv2D); ok && i == 0 {
			_, err = c.backwardParams(grad)
		} else {
			grad, err = n.layers[i].Backward(grad) //hsd:allow hotlint layer polymorphism is the training path's design; backprop has no fused counterpart
		}
		if err != nil {
			return fmt.Errorf("nn: backward through %s: %w", n.layers[i].Name(), err)
		}
	}
	return nil
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Shadow builds a worker shadow of the network. Its parameters alias this
// network's weight tensors: every update, restore or copy into them is
// visible to the shadow at once, with no sync. It owns everything else —
// gradients, dropout stream, layer buffers — so goroutines may each run
// their own shadow while nothing writes the weights. Its Backward stores
// each sample's parameter gradients instead of adding them, bit for bit
// what adding into zeroed gradients gives (DESIGN.md §7), so a gradient
// holds one sample and is never zeroed.
func (n *Network) Shadow() (*Network, error) {
	return n.derive(func(p *Param) *Param { return newParam(p.Name, p.W) }, true)
}

// ReseedDropout resets every dropout layer's mask stream to a value derived
// from seed (and the layer's position, so stacked dropout layers draw
// distinct streams). Parallel training calls this before each sample's
// forward pass with a seed derived from the sample's global index, which
// makes dropout masks — and therefore gradients — independent of worker
// assignment.
func (n *Network) ReseedDropout(seed int64) {
	k := int64(0)
	for _, l := range n.layers {
		if d, ok := l.(*Dropout); ok {
			d.Reseed(seed + k*0x9e3779b9)
			k++
		}
	}
}

// ParamCount returns the total number of learnable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.W.Len()
	}
	return c
}

// Summary renders a Table-1-style configuration listing for the given
// input shape.
func (n *Network) Summary(inShape []int) (string, error) {
	out := fmt.Sprintf("%-14s %-18s %s\n", "Layer", "Output Shape", "Params")
	shape := inShape
	var err error
	total := 0
	for _, l := range n.layers {
		shape, err = l.OutputShape(shape)
		if err != nil {
			return "", fmt.Errorf("nn: summary at %s: %w", l.Name(), err)
		}
		p := 0
		for _, par := range l.Params() {
			p += par.W.Len()
		}
		total += p
		out += fmt.Sprintf("%-14s %-18s %d\n", l.Name(), fmt.Sprint(shape), p)
	}
	out += fmt.Sprintf("total params: %d\n", total)
	return out, nil
}
