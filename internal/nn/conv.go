package nn

import (
	"fmt"
	"math/rand"

	"hotspot/internal/tensor"
)

// Conv2D is a 2-D convolution layer (cross-correlation, as in every deep
// learning framework) over channels-first (C, H, W) inputs, computed via
// im2col + matrix multiply. Work buffers are reused across samples, which
// matters on the single-sample training path: convolution dominates the
// paper network's cost.
//
// All three products run on tensor's tile kernels, bit-identical to the
// reference matmuls: the forward W·cols + b and the input gradient Wᵀ·g on
// tensor.MatMulTiles, the weight gradient g·colsᵀ on
// tensor.MatMulBTAddTiles (tensor.MatMulBTTiles on a shadow).
type Conv2D struct {
	name                string
	inC, outC           int
	kh, kw, stride, pad int
	weight, bias        *Param
	// storeGrads makes the backward pass store the sample's parameter
	// gradients instead of adding them; set on worker shadows
	// (Network.Shadow).
	storeGrads bool
	inH, inW   int
	// Reused buffers (allocated lazily for the first input geometry).
	cols    *tensor.Tensor // (inC*kh*kw, oh*ow), a view of colsBuf
	colsBuf []float64      // cols plus the tile kernel's read slack
	out     *tensor.Tensor // (outC, oh*ow)
	dCols   *tensor.Tensor // (inC*kh*kw, oh*ow); nil until dx is formed
	dx      *tensor.Tensor // (inC, inH, inW); nil until formed
	// Tile-product scratch, sized with the buffers above.
	off  []int     // off[p] = p·oh·ow: row p of cols, or of g
	gOff []int     // gOff[p] = p·TileWidth(outC): row p of gᵀ
	wT   []float64 // Wᵀ (inC*kh*kw, outC), refreshed per input gradient
	gT   []float64 // gᵀ (oh*ow, TileWidth(outC)) and the dot tile's rows, per weight gradient
	gPad []float64 // g plus read slack; only when oh·ow % 4 ≠ 0
	tile []float64 // TileRows × TileWidth(oh*ow) kernel output
}

// NewConv2D builds a convolution layer. Weights are He-initialized from
// rng; biases start at zero.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	fanIn, ok := convFanIn(inC, outC, k, stride, pad)
	if !ok {
		return nil, fmt.Errorf("nn: conv %q invalid geometry (inC=%d outC=%d k=%d stride=%d pad=%d)",
			name, inC, outC, k, stride, pad)
	}
	w := tensor.New(outC, fanIn)
	heInit(w, fanIn, rng)
	return newConv2D(name, inC, outC, k, stride, pad, w, tensor.New(outC)), nil
}

// convFanIn returns a convolution's fan-in inC·k·k when its geometry is
// valid (positive channel counts, kernel size and stride, a non-negative
// pad) and the fan-in fits in an int.
func convFanIn(inC, outC, k, stride, pad int) (int, bool) {
	if outC <= 0 || stride <= 0 || pad < 0 {
		return 0, false
	}
	return checkedProduct(inC, k, k)
}

// newConv2D assembles a convolution layer around weights w (outC, inC·k·k)
// and biases b (outC) that the caller has checked against the geometry.
func newConv2D(name string, inC, outC, k, stride, pad int, w, b *tensor.Tensor) *Conv2D {
	return &Conv2D{
		name: name, inC: inC, outC: outC, kh: k, kw: k, stride: stride, pad: pad,
		weight: newParam(name+".w", w), bias: newParam(name+".b", b),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Geometry returns the layer's hyper-parameters: input and output channel
// counts, (square) kernel size, stride and zero padding. The fused
// inference engine compiles its plan from these.
func (c *Conv2D) Geometry() (inC, outC, k, stride, pad int) {
	return c.inC, c.outC, c.kh, c.stride, c.pad
}

// Weights returns the weight matrix (outC, inC·k·k) and bias vector
// (outC). Both alias the live parameter storage, so callers holding them
// observe optimizer updates and weight syncs without re-fetching.
func (c *Conv2D) Weights() (w, b *tensor.Tensor) { return c.weight.W, c.bias.W }

// OutputShape implements Layer.
func (c *Conv2D) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.inC {
		return nil, fmt.Errorf("nn: conv %q expects (%d, H, W) input, got %v", c.name, c.inC, in)
	}
	oh := tensor.ConvOutputSize(in[1], c.kh, c.stride, c.pad)
	ow := tensor.ConvOutputSize(in[2], c.kw, c.stride, c.pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv %q output collapses for input %v", c.name, in)
	}
	return []int{c.outC, oh, ow}, nil
}

// ensureBuffers sizes the reusable work tensors and tile scratch for the
// input geometry, whose output (oh, ow) must not collapse.
func (c *Conv2D) ensureBuffers(h, w, oh, ow int) {
	if c.inH == h && c.inW == w && c.cols != nil {
		return
	}
	c.inH, c.inW = h, w
	kk, n := c.inC*c.kh*c.kw, oh*ow
	// The tile kernel reads each row of its B operand in whole 4-column
	// steps, so the last row of cols (and of g) needs slack to round into.
	slack := tensor.TileWidth(n) - n
	c.colsBuf = make([]float64, kk*n+slack)
	c.cols = tensor.MustFromSlice(c.colsBuf[:kk*n], kk, n)
	c.out = tensor.New(c.outC, n)
	c.off = make([]int, max(kk, c.outC))
	for p := range c.off {
		c.off[p] = p * n
	}
	ld := tensor.TileWidth(c.outC)
	c.gOff = make([]int, n)
	for p := range c.gOff {
		c.gOff[p] = p * ld
	}
	c.gT = make([]float64, (n+tensor.TileRows)*ld)
	c.tile = make([]float64, tensor.TileRows*tensor.TileWidth(n))
	c.dCols, c.dx, c.wT, c.gPad = nil, nil, nil, nil
}

// ensureInputGradBuffers sizes the input-gradient buffers for the current
// geometry on the first Backward that forms dx. Network.Backward never
// forms a first layer's, so that layer never allocates them.
func (c *Conv2D) ensureInputGradBuffers() {
	if c.dx != nil {
		return
	}
	kk, n := c.cols.Dim(0), c.cols.Dim(1)
	c.dCols = tensor.New(kk, n)
	c.dx = tensor.New(c.inC, c.inH, c.inW)
	c.wT = make([]float64, kk*c.outC)
	if slack := tensor.TileWidth(n) - n; slack > 0 {
		c.gPad = make([]float64, c.outC*n+slack)
	}
}

// Forward implements Layer. The returned tensor aliases an internal buffer
// that is overwritten by the next Forward call on this layer; downstream
// layers consume it immediately, which is the contract of the sequential
// one-sample training loop.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != c.inC {
		return nil, fmt.Errorf("nn: conv %q expects (%d, H, W) input, got %v", c.name, c.inC, x.Shape())
	}
	oh := tensor.ConvOutputSize(x.Dim(1), c.kh, c.stride, c.pad)
	ow := tensor.ConvOutputSize(x.Dim(2), c.kw, c.stride, c.pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv %q output collapses for input %v", c.name, x.Shape())
	}
	c.ensureBuffers(x.Dim(1), x.Dim(2), oh, ow)
	if err := tensor.Im2ColInto(c.cols, x, c.kh, c.kw, c.stride, c.pad); err != nil {
		return nil, err
	}
	// Bias rides the tile epilogue; ReLU stays a separate layer, which
	// records the mask its backward pass needs.
	tensor.MatMulTiles(c.out.Data(), c.weight.W.Data(), c.colsBuf, c.bias.W.Data(),
		c.off, c.tile, c.outC, c.inC*c.kh*c.kw, oh*ow)
	return c.out.Reshape(c.outC, oh, ow)
}

// Backward implements Layer. The returned gradient aliases an internal
// buffer overwritten by the next Backward call.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	g, err := c.backwardParams(grad)
	if err != nil {
		return nil, err
	}
	c.ensureInputGradBuffers()
	// dx = Col2Im(Wᵀ · g), on a transposed copy of W. A bias-free tile
	// product over Wᵀ equals MatMulATInto over W bit for bit: the same
	// per-element order.
	kk, n := c.inC*c.kh*c.kw, len(g)/c.outC
	w := c.weight.W.Data()
	for i := 0; i < c.outC; i++ {
		for p, v := range w[i*kk : i*kk+kk] {
			c.wT[p*c.outC+i] = v
		}
	}
	if c.gPad != nil {
		copy(c.gPad, g)
		g = c.gPad
	}
	tensor.MatMulTiles(c.dCols.Data(), c.wT, g, nil, c.off, c.tile, kk, c.outC, n)
	if err := tensor.Col2ImInto(c.dx, c.dCols, c.kh, c.kw, c.stride, c.pad); err != nil {
		return nil, err
	}
	return c.dx, nil
}

// backwardParams is Backward without the input gradient: it accumulates
// dW and db from grad, or stores them on a shadow, and returns grad's
// data. Network.Backward calls it alone on a first layer, whose input
// gradient nobody reads.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) ([]float64, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv %q backward before forward", c.name)
	}
	kk, n := c.cols.Dim(0), c.cols.Dim(1)
	if grad.Len() != c.outC*n {
		return nil, fmt.Errorf("nn: conv %q gradient shape %v, want %d×%d elements", c.name, grad.Shape(), c.outC, n)
	}
	g := grad.Data()
	// dW += g · colsᵀ and db += row sums of g. Each is a sum started at
	// +0, which can never be −0, so a shadow stores it: the value adding
	// it to a zeroed gradient would give.
	if c.storeGrads {
		tensor.MatMulBTTiles(c.weight.Grad.Data(), g, c.cols.Data(), c.gT, c.gOff, c.outC, n, kk)
	} else {
		tensor.MatMulBTAddTiles(c.weight.Grad.Data(), g, c.cols.Data(), c.gT, c.gOff, c.outC, n, kk)
	}
	bg := c.bias.Grad.Data()
	for oc := 0; oc < c.outC; oc++ {
		s := 0.0
		for _, v := range g[oc*n : (oc+1)*n] {
			s += v
		}
		if c.storeGrads {
			bg[oc] = s
		} else {
			bg[oc] += s
		}
	}
	return g, nil
}

// heInit fills w with He-normal values: N(0, sqrt(2/fanIn)), the standard
// initialization for ReLU networks.
func heInit(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = sqrt2Over(float64(fanIn))
	}
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64() * std
	}
}
