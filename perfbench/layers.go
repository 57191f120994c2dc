package main

import (
	"fmt"
	"slices"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// layerDef is one per-layer metric: its unit, which direction is better,
// and the end-to-end metric and workload a change to the layer should move.
type layerDef struct {
	name, unit, better string
	moves              string
	workloads          []string // workloads that reach the layer; nil = all
}

func (d layerDef) appliesTo(w string) bool {
	return d.workloads == nil || slices.Contains(d.workloads, w)
}

var (
	serveOnly = []string{"serve_bulk"}
	scanOnly  = []string{"scan_eco"}
	trainOnly = []string{"train"}
)

// stageNames are the fused single-stage engines, in network order.
var stageNames = []string{"conv1-1", "conv1-2", "conv2-1", "conv2-2", "fc1", "fc2"}

// stageLayers names the Table-1 layers each fused stage compiles.
var stageLayers = map[string][]string{
	"conv1-1": {"conv1-1", "relu1-1"},
	"conv1-2": {"conv1-2", "relu1-2", "maxpooling1"},
	"conv2-1": {"conv2-1", "relu2-1"},
	"conv2-2": {"conv2-2", "relu2-2", "maxpooling2"},
	"fc1":     {"fc1", "relu-fc1", "dropout1"},
	"fc2":     {"fc2"},
}

// nnLayerNames are the Table-1 layers with weights; every other layer is
// reported together as nn.other.
var nnLayerNames = []string{"conv1-1", "conv1-2", "conv2-1", "conv2-2", "fc1", "fc2"}

// layerTable lists every per-layer metric in BENCHMARK.json order.
var layerTable = func() []layerDef {
	t := []layerDef{
		{"serve.batch_size_mean", "count", "higher", "serve_bulk items_per_s, cpu_ms_per_item", serveOnly},
		{"serve.cache_hit_ratio", "ratio", "higher", "serve_bulk items_per_s, cpu_ms_per_item (about 0.25)", serveOnly},
		{"serve.residual_ms", "ms", "lower", "serve_bulk op_p50_ms (HTTP, JSON, hashing, queue wait, fan-out)", serveOnly},
		{"loadgen.late_hi_ms", "ms", "lower", "validity of every workload's timing (how late the closed loop issued ops)", nil},
		{"raster.clip_ms", "ms", "lower", "serve_bulk op_p50_ms and items_per_s, train setup_s", nil},
		{"raster.tile_ms", "ms", "lower", "scan_eco setup_s", nil},
		{"feature.clip_ms", "ms", "lower", "serve_bulk items_per_s (the largest serve layer), train setup_s", nil},
		{"feature.block_us", "us", "lower", "scan_eco setup_s (about 1% of a rescan)", nil},
		{"fused.forward_us", "us", "lower", "scan_eco op_p50_ms and items_per_s (dominant)", nil},
		{"fused.batch_ms", "ms", "lower", "serve_bulk items_per_s", nil},
	}
	for _, st := range stageNames {
		t = append(t,
			layerDef{"fused." + st + "_us", "us", "lower", "scan_eco op_p50_ms and items_per_s; never train", nil},
			layerDef{"fused." + st + "_gflops", "GFLOP/s", "higher", "scan_eco op_p50_ms and items_per_s; never train", nil})
	}
	for _, l := range append(append([]string(nil), nnLayerNames...), "other") {
		t = append(t,
			layerDef{"nn." + l + ".fwd_us", "us", "lower", "train op_p50_ms and items_per_s only", nil},
			layerDef{"nn." + l + ".bwd_us", "us", "lower", "train op_p50_ms and items_per_s only", nil})
	}
	return append(t,
		layerDef{"train.sample_ms", "ms", "lower", "train items_per_s", nil},
		layerDef{"train.residual_ms", "ms", "lower", "train op_p50_ms (replica set-up, reduction, update)", trainOnly},
		layerDef{"layout.apply_edit_ms", "ms", "lower", "scan_eco op_p50_ms", scanOnly},
		layerDef{"scan.windows_per_op", "count", "lower", "scan_eco items_per_s; moves only if invalidation changes", scanOnly},
		layerDef{"scan.block_dcts_per_op", "count", "lower", "scan_eco items_per_s; moves only if invalidation or caching changes", scanOnly},
		layerDef{"scan.dirty_blocks_per_op", "count", "lower", "scan_eco items_per_s; moves only if invalidation changes", scanOnly},
		layerDef{"scan.cache_hit_ratio", "ratio", "higher", "scan_eco items_per_s; moves only if caching changes", scanOnly},
		layerDef{"scan.residual_ms", "ms", "lower", "scan_eco op_p50_ms (window assembly, full-grid finish, region merge)", scanOnly},
		layerDef{"parallel.for_us", "us", "lower", "serve_bulk op_p50_ms (two fan-outs per micro-batch)", nil},
		layerDef{"trace.overhead_pct", "%", "lower", "nothing; it should stay small", nil},
	)
}()

// Span names: each is the public function the span times.
const (
	spanCoreImage    = "feature.ExtractCoreImage"
	spanRasterize    = "raster.Rasterize"
	spanTensor       = "feature.ExtractTensorFromImage"
	spanBlock        = "feature.BlockEncoder.EncodeInto"
	spanPredictOn    = "train.Evaluator.PredictOn"
	spanPredictProbs = "train.Evaluator.PredictProbs"
	spanStage        = "fused.Engine.Forward/"
	spanNNSample     = "nn.sample"
	spanLayerFwd     = "nn.Layer.Forward/"
	spanLayerBwd     = "nn.Layer.Backward/"
	spanLoss         = "nn.SoftmaxCrossEntropy"
	spanSample       = "train.sample"
	spanFor          = "parallel.Pool.For"
	spanApplyEdit    = "layout.ApplyEdit"
	spanServeMetrics = "serve.Server.Metrics"
)

// layerKit replays a workload's inputs through the lower layers' public
// functions, one span per call. op and parent tie the spans to the op
// whose inputs they replay (-1 and 0 for inputs not tied to one op).
type layerKit struct {
	rec  *recorder
	net  *nn.Network
	fcfg feature.TensorConfig
}

// clip rasterizes one clip's core and extracts its feature tensor.
func (k *layerKit) clip(c geom.Clip, core geom.Rect, op, parent int) (*raster.Image, *tensor.Tensor, error) {
	var im *raster.Image
	var x *tensor.Tensor
	err := k.rec.call(spanCoreImage, op, parent, func() (err error) {
		im, err = feature.ExtractCoreImage(c, core, k.fcfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = k.rec.call(spanTensor, op, parent, func() (err error) {
		x, err = feature.ExtractTensorFromImage(im, k.fcfg)
		return err
	})
	return im, x, err
}

// all runs every clip-independent layer replay on the given core images,
// tensors and 16×16-block tiles.
func (k *layerKit) all(ims []*raster.Image, xs []*tensor.Tensor, tiles []geom.Clip) error {
	for _, step := range []func() error{
		func() error { return k.blocks(ims) },
		func() error { return k.tiles(tiles) },
		func() error { return k.forward(xs) },
		func() error { return k.stages(xs) },
		func() error { return k.layers(xs) },
		func() error { return k.samples(xs) },
		k.poolFor,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// blocks encodes every block of the core images, one span per block.
func (k *layerKit) blocks(ims []*raster.Image) error {
	if len(ims) == 0 {
		return nil
	}
	n := k.fcfg.Blocks
	b := ims[0].W / n
	enc, err := k.fcfg.NewBlockEncoder(b)
	if err != nil {
		return err
	}
	block, dst := make([]float64, b*b), make([]float64, k.fcfg.K)
	for _, im := range ims {
		for by := 0; by < n; by++ {
			for bx := 0; bx < n; bx++ {
				for y := 0; y < b; y++ {
					row := (by*b+y)*im.W + bx*b
					copy(block[y*b:(y+1)*b], im.Pix[row:row+b])
				}
				if err := k.rec.call(spanBlock, -1, 0, func() error { return enc.EncodeInto(dst, block) }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tiles rasterizes each 16×16-block tile.
func (k *layerKit) tiles(tiles []geom.Clip) error {
	for _, t := range tiles {
		if err := k.rec.call(spanRasterize, -1, 0, func() error {
			_, err := raster.Rasterize(t, k.fcfg.ResNM)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// forward times the fused evaluator at batch 1 on each tensor, and on
// batches of 32 tensors.
func (k *layerKit) forward(xs []*tensor.Tensor) error {
	ev, err := train.NewEvaluator(k.net, 0)
	if err != nil {
		return err
	}
	if err := ev.Prepare(xs[0].Shape()); err != nil {
		return err
	}
	for _, x := range xs {
		if err := k.rec.call(spanPredictOn, -1, 0, func() error {
			_, err := ev.PredictOn(0, x)
			return err
		}); err != nil {
			return err
		}
	}
	const batch = 32
	for rep := 0; rep < 8; rep++ {
		b := make([]*tensor.Tensor, batch)
		for i := range b {
			b[i] = xs[(rep*batch+i)%len(xs)]
		}
		if err := k.rec.call(spanPredictProbs, -1, 0, func() error {
			_, err := ev.PredictProbs(b)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// stages compiles one single-stage fused engine per Table-1 stage and
// runs each tensor through them in order, feeding every stage the real
// activations of the one before.
func (k *layerKit) stages(xs []*tensor.Tensor) error {
	byName := map[string]nn.Layer{}
	for _, l := range k.net.Layers() {
		byName[l.Name()] = l
	}
	shape := xs[0].Shape()
	engines := make([]*fused.Engine, len(stageNames))
	macs := make([]float64, len(stageNames))
	for i, st := range stageNames {
		var layers []nn.Layer
		for _, name := range stageLayers[st] {
			l, ok := byName[name]
			if !ok {
				return fmt.Errorf("network has no layer %q", name)
			}
			layers = append(layers, l)
		}
		if st == "fc1" { // the engine takes fc1's input flattened
			shape = []int{prod(shape)}
		}
		macs[i] = layerMACs(layers[0], shape)
		eng, err := fused.Compile(nn.NewNetwork(layers...), shape)
		if err != nil {
			return fmt.Errorf("stage %s: %w", st, err)
		}
		engines[i] = eng
		shape = eng.OutShape()
	}
	for _, x := range xs {
		in := x
		for i, eng := range engines {
			start := time.Now()
			out, err := eng.Forward(in)
			k.rec.add(spanStage+stageNames[i], -1, 0, start, time.Now(), map[string]float64{"macs": macs[i]})
			if err != nil {
				return err
			}
			if i+1 == len(engines) {
				break
			}
			// The next stage's shape: fc1 takes conv2-2's output flattened.
			if in, err = tensor.FromSlice(append([]float64(nil), out...), engines[i+1].InShape()...); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMACs is the multiply-add count of a conv or dense layer on an
// input of the given shape.
func layerMACs(l nn.Layer, in []int) float64 {
	switch l := l.(type) {
	case *nn.Conv2D:
		inC, outC, k, stride, pad := l.Geometry()
		oh := (in[1]+2*pad-k)/stride + 1
		ow := (in[2]+2*pad-k)/stride + 1
		return float64(outC * oh * ow * inC * k * k)
	case *nn.Dense:
		i, o := l.Dims()
		return float64(i * o)
	}
	return 0
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// layers runs the layered network one layer at a time in training mode,
// forward then backward, one span per layer call under one span per
// sample. A clone keeps the workload's own network untouched.
func (k *layerKit) layers(xs []*tensor.Tensor) error {
	net, err := k.net.Clone()
	if err != nil {
		return err
	}
	yn, yh, err := train.Targets(0.1)
	if err != nil {
		return err
	}
	ls := net.Layers()
	for i, x := range xs[:min(len(xs), 16)] {
		net.ReseedDropout(int64(i))
		sp := k.rec.open(spanNNSample, -1, 0)
		for _, l := range ls {
			l := l
			if err := k.rec.call(spanLayerFwd+l.Name(), -1, sp, func() (err error) {
				x, err = l.Forward(x, true)
				return err
			}); err != nil {
				return err
			}
		}
		target := yn
		if i%2 == 1 {
			target = yh
		}
		var g *tensor.Tensor
		if err := k.rec.call(spanLoss, -1, sp, func() (err error) {
			_, g, err = nn.SoftmaxCrossEntropy(x, target)
			return err
		}); err != nil {
			return err
		}
		for j := len(ls) - 1; j >= 0; j-- {
			l := ls[j]
			if err := k.rec.call(spanLayerBwd+l.Name(), -1, sp, func() (err error) {
				g, err = l.Backward(g)
				return err
			}); err != nil {
				return err
			}
		}
		k.rec.close(sp)
	}
	return nil
}

// samples times one training sample end to end — forward, loss, backward
// on the whole network — as train.MGD runs it for every batch position.
func (k *layerKit) samples(xs []*tensor.Tensor) error {
	net, err := k.net.Clone()
	if err != nil {
		return err
	}
	yn, yh, err := train.Targets(0.1)
	if err != nil {
		return err
	}
	for i, x := range xs {
		target := yn
		if i%2 == 1 {
			target = yh
		}
		net.ReseedDropout(int64(i))
		if err := k.rec.call(spanSample, -1, 0, func() error {
			out, err := net.Forward(x, true)
			if err != nil {
				return err
			}
			_, g, err := nn.SoftmaxCrossEntropy(out, target)
			if err != nil {
				return err
			}
			return net.Backward(g)
		}); err != nil {
			return err
		}
	}
	return nil
}

// poolFor times an empty parallel.Pool.For over one item per worker: the
// fan-out cost every parallel stage pays.
func (k *layerKit) poolFor() error {
	pool := parallel.New(0)
	noop := func(int, int) error { return nil }
	for i := 0; i < 256; i++ {
		if err := k.rec.call(spanFor, -1, 0, func() error { return pool.For(pool.Size(), noop) }); err != nil {
			return err
		}
	}
	return nil
}
