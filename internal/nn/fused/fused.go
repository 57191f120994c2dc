// Package fused is the forward-only inference engine: it compiles a trained
// nn.Network into a flat plan of fused operations that a single pass
// executes with zero allocations and no per-layer dispatch.
//
// Compilation fuses adjacent layers into one walk over the data — a
// convolution's bias add and following ReLU ride the im2col-product
// epilogue while the output row is still in registers, and an adjacent 2×2
// max-pool consumes each finished row before the next is computed, so the
// full pre-pool activation tensor never round-trips through memory.
// Dropout is the identity at inference and compiles to nothing. All
// intermediate buffers are planned at compile time into one arena slab;
// ForwardBatch and Forward never allocate and never touch a layer object.
//
// ForwardBatch scores several inputs per call. The conv and pool steps run
// sample by sample; the dense tail (the first dense step and everything
// after it, which can only be dense and ReLU steps) runs over
// tensor.TileRows samples at a time, held transposed, on tensor.DotTile:
// each block of four weight rows × four samples is one four-lane tile, so
// every weight row is streamed once per four samples instead of once per
// sample. Forward is a batch of one on the same path.
//
// ForwardGrid scores overlapping windows of one die off a Grid (grid.go):
// the plan's leading "same" convs keep die-level maps there, so each
// window computes only the ring of positions near its edge and copies the
// rest. It runs the same per-sample routine as ForwardBatch, with the
// Grid as the sample source.
//
// The convolution product runs on tensor's register-blocked tile kernel,
// the one the layered Conv2D also runs: four output channels advance
// together through the coefficient rows of the im2col product, so every
// loaded coefficient element feeds four accumulators. Stride-1 convs
// (every Table 1 conv) never build that matrix: each reads a zero-bordered
// copy of its input in place through an offset table (implicit im2col).
// Strided convs stage the explicit matrix and run the same kernels over
// it.
//
// Bit-for-bit contract: every kernel here accumulates each output element
// in exactly the per-element order and grouping of the layer-by-layer path
// (the tensor package's tile kernel, MatVecInto's sequential dot products —
// each lane of a dot tile is one such chain — and MaxPool2's comparison
// order), so fused probabilities are bit-identical to nn.Network.Forward —
// the parity tests in this package and in internal/train pin that equality
// on every Table 1 geometry and on stride/pad edge cases.
//
// An Engine aliases the source network's parameter tensors rather than
// copying them: weight updates (optimizer steps, checkpoint reloads that
// copy in place) are visible immediately. It only reads them, so any
// number of engines may be compiled from one network and run at once. An
// Engine is not safe for concurrent use — it owns one arena — so keep one
// engine per worker, as train.Evaluator does.
package fused

import (
	"fmt"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// opKind selects the fused operation a plan step executes.
type opKind uint8

const (
	opConv  opKind = iota // conv + bias (+ ReLU) (+ 2×2 max-pool)
	opDense               // matvec + bias (+ ReLU)
	opReLU                // standalone rectifier
	opPool                // standalone 2×2 max-pool
)

// op is one step of the compiled plan. All slices are views into the
// engine arena except w and bias, which alias the network's parameters.
type op struct {
	kind opKind

	// Geometry. opConv: input (inC, inH, inW), square kernel k, stride,
	// pad, conv output (outC, oh, ow) and pooled output (ph, pw) when pool
	// is set. opPool: inC channels of inH×inW pooled to ph×pw. opDense:
	// inLen → outLen.
	inC, inH, inW        int
	outC, k, stride, pad int
	oh, ow               int
	ph, pw               int
	inLen, outLen        int
	relu, pool           bool

	w, bias []float64 // parameter aliases (opConv, opDense)

	// in is the previous step's output (nil = the caller's input) and out
	// this step's. A dense-tail step's buffers hold TileRows samples
	// transposed: element j of sample s at [j·TileRows + s].
	in  []float64
	out []float64

	// Conv kernel plan (opConv). Coefficient row p of the im2col product
	// is base[off[p] : off[p]+width], and output element (oy, ox) is
	// virtual column oy·vw + ox. A stride-1 conv reads a zero-bordered
	// copy of its input: base is the op's own (inC, inH+2·pad, inW+2·pad)
	// plane, off[p] = ch·Hp·Wp + ky·Wp + kx and vw = Wp. A strided conv
	// stages the explicit im2col matrix: base is the shared cols region,
	// off[p] = p·oh·ow and vw = ow. width covers the last valid column,
	// rounded up to a multiple of 4; base is sized so the rounded reads
	// stay inside it. A dense op's off[j] = j·TileRows is the dot tile's
	// row table over its transposed input.
	base  []float64
	off   []int
	width int
	vw    int
	tile  []float64      // TileRows×width kernel output (shared region)
	inT   *tensor.Tensor // strided: rank-3 view of in; nil = caller's input
	colsT *tensor.Tensor // strided: rank-2 view of base for Im2ColInto
}

// Engine is a compiled forward-only inference plan for one input geometry.
// Build one with Compile. Not safe for concurrent use.
type Engine struct {
	inShape  []int
	outShape []int
	ops      []op
	// tail indexes the first dense step: ops[:tail] run per sample and
	// ops[tail:] over TileRows transposed samples. tail == len(ops) for a
	// net without dense layers.
	tail  int
	arena []float64
	// xT stages the dense tail's input, TileRows samples transposed; it is
	// ops[tail].in. Nil without a dense tail.
	xT  []float64
	out []float64 // Forward's output, one sample
	// depth counts the shared prefix (sharedDepth): ForwardGrid runs
	// ops[:depth] on the ring path that rings[s] plans for op s.
	depth int
	rings []ringPlan
	// stage holds a Grid window as an input tensor, for a (C, H, W) net
	// without a shared prefix; nil otherwise.
	stage *tensor.Tensor
}

// Compile builds an engine executing net's inference forward pass for
// inputs of exactly inShape. It returns an error for layer types it cannot
// fuse and for geometries the network itself would reject.
func Compile(net *nn.Network, inShape []int) (*Engine, error) {
	layers := net.Layers()
	if len(layers) == 0 {
		return nil, fmt.Errorf("fused: empty network")
	}
	if len(inShape) == 0 {
		return nil, fmt.Errorf("fused: empty input shape")
	}
	for _, d := range inShape {
		if d <= 0 {
			return nil, fmt.Errorf("fused: invalid input shape %v", inShape)
		}
	}

	// Pass 1: walk the stack, validating shapes through each layer's own
	// OutputShape and folding fusable neighbours into single ops.
	var ops []op
	shape := append([]int(nil), inShape...)
	for i := 0; i < len(layers); {
		switch l := layers[i].(type) {
		case *nn.Dropout:
			i++ // identity at inference

		case *nn.ReLU:
			ops = append(ops, op{kind: opReLU, inLen: prod(shape), outLen: prod(shape)})
			i++

		case *nn.MaxPool2:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			ops = append(ops, op{
				kind: opPool,
				inC:  shape[0], inH: shape[1], inW: shape[2],
				ph: out[1], pw: out[2],
				inLen: prod(shape), outLen: prod(out),
			})
			shape = out
			i++

		case *nn.Conv2D:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			inC, outC, k, stride, pad := l.Geometry()
			w, b := l.Weights()
			o := op{
				kind: opConv,
				inC:  inC, inH: shape[1], inW: shape[2],
				outC: outC, k: k, stride: stride, pad: pad,
				oh: out[1], ow: out[2],
				inLen: prod(shape), outLen: prod(out),
				w: w.Data(), bias: b.Data(),
			}
			shape = out
			i++
			// Fuse a directly following ReLU into the row epilogue.
			if i < len(layers) {
				if _, ok := layers[i].(*nn.ReLU); ok {
					o.relu = true
					i++
				}
			}
			// Fuse a directly following 2×2 max-pool into the channel walk.
			if i < len(layers) {
				if mp, ok := layers[i].(*nn.MaxPool2); ok {
					pout, err := mp.OutputShape(shape)
					if err != nil {
						return nil, fmt.Errorf("fused: %s: %w", mp.Name(), err)
					}
					o.pool = true
					o.ph, o.pw = pout[1], pout[2]
					o.outLen = prod(pout)
					shape = pout
					i++
				}
			}
			ops = append(ops, o)

		case *nn.Dense:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			in, outN := l.Dims()
			w, b := l.Weights()
			o := op{
				kind:  opDense,
				inLen: in, outLen: outN,
				w: w.Data(), bias: b.Data(),
				off: make([]int, in),
			}
			for j := range o.off {
				o.off[j] = j * tensor.TileRows
			}
			shape = out
			i++
			if i < len(layers) {
				if _, ok := layers[i].(*nn.ReLU); ok {
					o.relu = true
					i++
				}
			}
			ops = append(ops, o)

		default:
			return nil, fmt.Errorf("fused: unsupported layer type %T (%s)", l, l.Name())
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("fused: network reduces to the identity (dropout only)")
	}
	// A dense step emits a rank-1 shape, which conv and pool layers reject,
	// so everything from the first dense step on is dense or ReLU.
	tail := len(ops)
	for idx := range ops {
		if ops[idx].kind == opDense {
			tail = idx
			break
		}
	}

	depth := sharedDepth(ops, inShape)
	rings := planRings(ops, depth)

	// Pass 2: plan the arena. One kernel tile region shared by every conv
	// (and by the grid path's span tiles and pre-pool rows) and one
	// explicit im2col region shared by the strided convs, then each
	// stride-1 conv's own zero-bordered input plane — its border is zeroed
	// here, once, and stays zero only because no other op writes into the
	// plane — then each op's output buffer (TileRows samples wide in the
	// dense tail), the dense tail's transposed input, Forward's one-sample
	// output and a grid window's staged input, all in a single slab.
	tileMax, colsMax, planes, actTotal := 0, 0, 0, 0
	rowsLen, spanMax := 0, 0
	if depth > 0 && ops[depth-1].pool {
		rowsLen = tensor.TileRows * ops[depth-1].oh * ops[depth-1].ow
	}
	baseLen := make([]int, len(ops))
	for idx := range ops {
		o := &ops[idx]
		if o.kind == opConv {
			baseLen[idx] = planConv(o)
			tileMax = max(tileMax, tensor.TileRows*o.width)
			if idx < depth {
				// A span's rounded-up columns may run past the plan's width.
				baseLen[idx] = max(baseLen[idx], o.off[len(o.off)-1]+rings[idx].end())
				spanMax = max(spanMax, rings[idx].maxWidth())
			}
			if o.stride == 1 {
				planes += baseLen[idx]
			} else {
				colsMax = max(colsMax, baseLen[idx])
			}
		}
		actTotal += outSize(o, idx >= tail)
	}
	tileMax = max(tileMax, rowsLen+tensor.TileRows*spanMax)
	stage := 0
	if tail < len(ops) {
		stage = tensor.TileRows * ops[tail].inLen
	}
	window := 0
	if depth == 0 && len(inShape) == 3 {
		window = prod(inShape)
	}
	outLen := prod(shape)
	arena := make([]float64, tileMax+colsMax+planes+actTotal+stage+outLen+window)
	tileRegion := arena[:tileMax]
	colsRegion := arena[tileMax : tileMax+colsMax]
	cur := tileMax + colsMax

	e := &Engine{
		inShape: append([]int(nil), inShape...),
		arena:   arena,
		ops:     ops,
		tail:    tail,
		depth:   depth,
		rings:   rings,
	}
	var prev []float64 // previous op's output view; nil = caller's input
	var prevShape []int
	for idx := range e.ops {
		o := &e.ops[idx]
		if idx == tail {
			e.xT = arena[cur : cur+stage]
			cur += stage
			prev = e.xT
		}
		o.in = prev
		n := outSize(o, idx >= tail)
		o.out = arena[cur : cur+n]
		cur += n
		if o.kind == opConv {
			o.tile = tileRegion[:tensor.TileRows*o.width]
			if o.stride == 1 {
				o.base = arena[cur : cur+baseLen[idx]]
				cur += baseLen[idx]
			} else {
				kk, n := len(o.off), o.oh*o.ow
				o.base = colsRegion[:baseLen[idx]]
				t, err := tensor.FromSlice(o.base[:kk*n], kk, n)
				if err != nil {
					return nil, fmt.Errorf("fused: plan cols: %w", err)
				}
				o.colsT = t
				if prev != nil {
					// Pre-wrap the producing buffer as a rank-3 tensor so
					// Forward's im2col needs no per-call wrapping.
					t, err := tensor.FromSlice(prev, prevShape[0], prevShape[1], prevShape[2])
					if err != nil {
						return nil, fmt.Errorf("fused: plan conv input: %w", err)
					}
					o.inT = t
				}
			}
		}
		prev = o.out
		switch o.kind {
		case opConv:
			if o.pool {
				prevShape = []int{o.outC, o.ph, o.pw}
			} else {
				prevShape = []int{o.outC, o.oh, o.ow}
			}
		case opPool:
			prevShape = []int{o.inC, o.ph, o.pw}
		case opReLU:
			// Shape passes through unchanged.
		case opDense:
			prevShape = []int{o.outLen}
		}
	}
	e.out = arena[cur : cur+outLen]
	cur += outLen
	if window > 0 {
		t, err := tensor.FromSlice(arena[cur:cur+window], inShape...)
		if err != nil {
			return nil, fmt.Errorf("fused: plan grid window: %w", err)
		}
		e.stage = t
	}
	e.bindRings(tileRegion[:rowsLen], tileRegion[rowsLen:rowsLen+tensor.TileRows*spanMax])
	e.outShape = append([]int(nil), shape...)
	return e, nil
}

// outSize is the length of an op's output buffer: one sample's outLen, or
// TileRows samples' in the dense tail.
func outSize(o *op, tail bool) int {
	if tail {
		return tensor.TileRows * o.outLen
	}
	return o.outLen
}

// planConv builds a conv op's offset table and virtual-column geometry
// and returns the length of the input region its kernels read. Coefficient
// row p = (ch·k + ky)·k + kx follows tensor.Im2ColInto's row order, so the
// kernels accumulate in the layered path's coefficient order.
func planConv(o *op) int {
	kk := o.inC * o.k * o.k
	o.off = make([]int, kk)
	if o.stride != 1 {
		n := o.oh * o.ow
		for p := range o.off {
			o.off[p] = p * n
		}
		o.vw = o.ow
		o.width = tensor.TileWidth(n)
		return o.off[kk-1] + o.width
	}
	hp, wp := o.inH+2*o.pad, o.inW+2*o.pad
	for p := range o.off {
		ch, ky, kx := p/(o.k*o.k), p/o.k%o.k, p%o.k
		o.off[p] = ch*hp*wp + ky*wp + kx
	}
	o.vw = wp
	o.width = tensor.TileWidth((o.oh-1)*wp + o.ow)
	return max(o.inC*hp*wp, o.off[kk-1]+o.width)
}

// Vectorized names the conv kernel the engine runs on this host, as
// tensor.TileKernel does: "avx512-4x16" for the AVX-512 tile kernel (4
// channels × 16 columns per step), "avx2-4x4" for the AVX2 one (4
// channels × 4 columns), and "generic" for the pure-Go blocked kernels.
// All produce bit-identical outputs; the name is recorded by benchmark
// reports so numbers are attributable to a kernel.
func Vectorized() string { return tensor.TileKernel() }

// prod returns the element count of a shape.
func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// InShape returns the input shape the engine was compiled for.
func (e *Engine) InShape() []int { return append([]int(nil), e.inShape...) }

// OutShape returns the network output shape.
func (e *Engine) OutShape() []int { return append([]int(nil), e.outShape...) }

// OutLen returns the number of output scalars.
func (e *Engine) OutLen() int { return len(e.out) }

// Accepts reports whether x has the input shape the engine was compiled
// for, without allocating.
func (e *Engine) Accepts(x *tensor.Tensor) bool {
	if x.Rank() != len(e.inShape) {
		return false
	}
	for i, d := range e.inShape {
		if x.Dim(i) != d {
			return false
		}
	}
	return true
}

// Forward runs the compiled plan on one sample and returns the network
// output as a view into the engine arena, valid until the next Forward
// call. It is ForwardBatch on a batch of one and performs no allocations.
func (e *Engine) Forward(x *tensor.Tensor) ([]float64, error) {
	xs := [1]*tensor.Tensor{x}
	if err := e.ForwardBatch(e.out, xs[:]); err != nil {
		return nil, err
	}
	return e.out, nil
}

// source is where a group's samples come from: the caller's tensors xs,
// or, when g is set, consecutive windows of Grid row wy from window wx.
type source struct {
	xs     []*tensor.Tensor
	g      *Grid
	wx, wy int
}

// ForwardBatch runs the compiled plan on every input of xs and writes
// sample i's output to out[i·OutLen() : (i+1)·OutLen()], bit for bit what
// Forward returns for that input alone. It checks every input's shape
// before it computes anything, runs the conv and pool steps sample by
// sample and the dense tail over TileRows samples at a time. It performs
// no allocations.
func (e *Engine) ForwardBatch(out []float64, xs []*tensor.Tensor) error {
	n := len(e.out)
	if len(out) != len(xs)*n {
		return fmt.Errorf("fused: output holds %d values, want %d for %d inputs", len(out), len(xs)*n, len(xs))
	}
	for i, x := range xs {
		if !e.Accepts(x) {
			return fmt.Errorf("fused: input %d shape %v, engine compiled for %v", i, x.Shape(), e.inShape)
		}
	}
	for lo := 0; lo < len(xs); lo += tensor.TileRows {
		hi := min(lo+tensor.TileRows, len(xs))
		if err := e.forwardGroup(out[lo*n:hi*n], source{xs: xs[lo:hi]}, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// forwardGroup runs count ≤ TileRows samples from src through the plan:
// the steps before the dense tail sample by sample, each sample's result
// staged as one lane of the tail's transposed input, then the tail once
// for the group. A Grid window runs the shared prefix on the ring path
// (gridPrefix) and the steps after it as a tensor input would, or, without
// a shared prefix, is staged as an input tensor. Unused lanes are zeroed;
// their results are never emitted.
//
//hsd:noalloc
func (e *Engine) forwardGroup(out []float64, src source, count int) error {
	n := len(e.out)
	for s := 0; s < count; s++ {
		var x *tensor.Tensor
		from := 0
		switch {
		case src.g == nil:
			x = src.xs[s]
		case e.depth > 0:
			e.gridPrefix(src.g, src.wx+s, src.wy)
			from = e.depth
		default:
			src.g.window(e.stage.Data(), e.inShape[1]*e.inShape[2], e.inShape[2], 0, src.wx+s, src.wy)
			x = e.stage
		}
		for i := from; i < e.tail; i++ {
			if err := e.step(&e.ops[i], x); err != nil {
				return err
			}
		}
		var res []float64
		if e.tail > 0 {
			res = e.ops[e.tail-1].out
		} else {
			res = x.Data()
		}
		if e.xT == nil {
			copy(out[s*n:s*n+n], res)
			continue
		}
		for j, v := range res[:e.ops[e.tail].inLen] {
			e.xT[j*tensor.TileRows+s] = v
		}
	}
	if e.xT == nil {
		return nil
	}
	for j := 0; j < len(e.xT); j += tensor.TileRows {
		for s := count; s < tensor.TileRows; s++ {
			e.xT[j+s] = 0
		}
	}
	for i := e.tail; i < len(e.ops); i++ {
		o := &e.ops[i]
		if o.kind == opDense {
			denseTile(o)
		} else {
			reluRun(o, o.in)
		}
	}
	last := e.ops[len(e.ops)-1].out
	for s := range count {
		for r := range n {
			out[s*n+r] = last[r*tensor.TileRows+s]
		}
	}
	return nil
}

// step runs one per-sample op on input x.
//
//hsd:noalloc
func (e *Engine) step(o *op, x *tensor.Tensor) error {
	switch o.kind {
	case opConv:
		if o.stride == 1 {
			padInput(o, e.input(o, x))
		} else {
			src := o.inT
			if src == nil {
				src = x
			}
			if err := tensor.Im2ColInto(o.colsT, src, o.k, o.k, o.stride, o.pad); err != nil {
				return err
			}
		}
		convRun(o)
	case opReLU:
		reluRun(o, e.input(o, x))
	case opPool:
		poolRun(o, e.input(o, x))
	}
	return nil
}

// input resolves an op's input slice: its planned view, or the caller's
// tensor for the first op.
func (e *Engine) input(o *op, x *tensor.Tensor) []float64 {
	if o.in == nil {
		return x.Data()
	}
	return o.in
}

// padInput copies a stride-1 conv's (inC, inH, inW) input into the
// interior of its zero-bordered plane, row by row.
//
//hsd:noalloc
func padInput(o *op, x []float64) {
	hp, wp := o.inH+2*o.pad, o.inW+2*o.pad
	for c := 0; c < o.inC; c++ {
		src := x[c*o.inH*o.inW : (c+1)*o.inH*o.inW]
		dst := o.base[c*hp*wp+o.pad*wp+o.pad:]
		for y := 0; y < o.inH; y++ {
			copy(dst[y*wp:y*wp+o.inW], src[y*o.inW:y*o.inW+o.inW])
		}
	}
}
