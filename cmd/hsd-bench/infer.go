package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/obs"
	"hotspot/internal/tensor"
)

// The -exp infer suite benchmarks the layer-by-layer inference path
// against the fused engine on the paper's Table 1 geometries: each conv
// stage and FC layer in isolation, then the full network end to end at
// batch sizes 1, 8 and 32. Before any timing it gates on parity — every
// target's fused output must match the layered output bit for bit, or the
// run fails — so the report can never show a speedup for a kernel that
// changed the numbers. Results go to -infer-out as JSON (BENCH_infer.json
// is the checked-in record) with ns/op, B/op and allocs/op per path, and
// the geometric-mean end-to-end speedup across batch sizes.

// inferTarget is one benchmark subject: a network plus its input shape.
type inferTarget struct {
	name  string
	net   *nn.Network
	shape []int
	batch int
}

// inferEntry is one row of the JSON report. ns/op, B/op and allocs/op are
// per single forward pass (batch runs divide by the batch size).
type inferEntry struct {
	Name  string `json:"name"`
	Batch int    `json:"batch"`
	// Reps is the repetition count actually timed — the -infer-reps value
	// when fixed, the calibrated count otherwise (calibration is
	// per-target, so the count varies per row).
	Reps            int     `json:"reps"`
	LayeredNsOp     float64 `json:"layered_ns_op"`
	FusedNsOp       float64 `json:"fused_ns_op"`
	LayeredBOp      float64 `json:"layered_b_op"`
	FusedBOp        float64 `json:"fused_b_op"`
	LayeredAllocsOp float64 `json:"layered_allocs_op"`
	FusedAllocsOp   float64 `json:"fused_allocs_op"`
	Speedup         float64 `json:"speedup"`
}

// inferReport is the -infer-out JSON document.
type inferReport struct {
	GOOS           string       `json:"goos"`
	GOARCH         string       `json:"goarch"`
	NumCPU         int          `json:"num_cpu"`
	Kernel         string       `json:"kernel"` // fused conv kernel (fused.Vectorized): avx2-4x4 tile or generic
	Entries        []inferEntry `json:"entries"`
	GeomeanSpeedup float64      `json:"geomean_e2e_speedup"` // over end-to-end entries
}

// inferTargets builds the benchmark subjects from the Table 1
// configuration: each stage as a standalone network with the shape it sees
// inside the full net, plus the full network end to end.
func inferTargets() ([]inferTarget, []inferTarget, error) {
	cfg := nn.DefaultPaperNetConfig()
	rng := rand.New(rand.NewSource(7))
	k, n := cfg.InChannels, cfg.SpatialSize
	c1, c2, fc1 := cfg.Conv1Maps, cfg.Conv2Maps, cfg.FC1

	conv := func(name string, inC, outC int, pool bool) (*nn.Network, error) {
		c, err := nn.NewConv2D(name, inC, outC, 3, 1, 1, rng)
		if err != nil {
			return nil, err
		}
		layers := []nn.Layer{c, nn.NewReLU(name + "-relu")}
		if pool {
			layers = append(layers, nn.NewMaxPool2(name+"-pool"))
		}
		return nn.NewNetwork(layers...), nil
	}
	dense := func(name string, in, out int, relu bool) (*nn.Network, error) {
		d, err := nn.NewDense(name, in, out, rng)
		if err != nil {
			return nil, err
		}
		layers := []nn.Layer{d}
		if relu {
			layers = append(layers, nn.NewReLU(name+"-relu"))
		}
		return nn.NewNetwork(layers...), nil
	}

	var layersT []inferTarget
	add := func(name string, net *nn.Network, err error, shape ...int) error {
		if err != nil {
			return err
		}
		layersT = append(layersT, inferTarget{name: name, net: net, shape: shape, batch: 1})
		return nil
	}
	s1, err := conv("conv1-1", k, c1, false)
	if err := add("conv1-1", s1, err, k, n, n); err != nil {
		return nil, nil, err
	}
	s2, err := conv("conv1-2", c1, c1, true)
	if err := add("conv1-2+pool", s2, err, c1, n, n); err != nil {
		return nil, nil, err
	}
	s3, err := conv("conv2-1", c1, c2, false)
	if err := add("conv2-1", s3, err, c1, n/2, n/2); err != nil {
		return nil, nil, err
	}
	s4, err := conv("conv2-2", c2, c2, true)
	if err := add("conv2-2+pool", s4, err, c2, n/2, n/2); err != nil {
		return nil, nil, err
	}
	flat := c2 * (n / 4) * (n / 4)
	d1, err := dense("fc1", flat, fc1, true)
	if err := add("fc1", d1, err, flat); err != nil {
		return nil, nil, err
	}
	d2, err := dense("fc2", fc1, 2, false)
	if err := add("fc2", d2, err, fc1); err != nil {
		return nil, nil, err
	}

	var e2e []inferTarget
	for _, batch := range []int{1, 8, 32} {
		net, err := nn.NewPaperNet(cfg)
		if err != nil {
			return nil, nil, err
		}
		e2e = append(e2e, inferTarget{
			name: "papernet", net: net, shape: []int{k, n, n}, batch: batch,
		})
	}
	return layersT, e2e, nil
}

// inferInputs builds a target's seeded random input batch.
func inferInputs(tg inferTarget, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, tg.batch)
	for i := range xs {
		x := tensor.New(tg.shape...)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// checkInferParity fails unless the fused engine reproduces the layered
// forward bit for bit on every input of the batch.
func checkInferParity(tg inferTarget, eng *fused.Engine, xs []*tensor.Tensor) error {
	for i, x := range xs {
		want, err := tg.net.Forward(x, false)
		if err != nil {
			return fmt.Errorf("%s: layered forward: %w", tg.name, err)
		}
		wantCopy := append([]float64(nil), want.Data()...)
		got, err := eng.Forward(x)
		if err != nil {
			return fmt.Errorf("%s: fused forward: %w", tg.name, err)
		}
		for j := range wantCopy {
			if math.Float64bits(got[j]) != math.Float64bits(wantCopy[j]) {
				return fmt.Errorf("%s: PARITY FAILURE on input %d element %d: fused %v (bits %x) != layered %v (bits %x)",
					tg.name, i, j, got[j], math.Float64bits(got[j]), wantCopy[j], math.Float64bits(wantCopy[j]))
			}
		}
	}
	return nil
}

// timeInfer measures one path. run executes one forward pass over one
// input; reps full batch sweeps are timed with obs.Stopwatch, and heap
// traffic comes from the monotonic runtime.MemStats counters, so a GC
// mid-measurement cannot skew B/op.
func timeInfer(reps int, xs []*tensor.Tensor, run func(*tensor.Tensor) error) (nsOp, bOp, allocsOp float64, err error) {
	for _, x := range xs { // warm up layer caches and page in buffers
		if err := run(x); err != nil {
			return 0, 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	watch := obs.NewStopwatch()
	for r := 0; r < reps; r++ {
		for _, x := range xs {
			if err := run(x); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	elapsed := watch.Elapsed()
	runtime.ReadMemStats(&after)
	ops := float64(reps) * float64(len(xs))
	nsOp = float64(elapsed.Nanoseconds()) / ops
	bOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	allocsOp = float64(after.Mallocs-before.Mallocs) / ops
	return nsOp, bOp, allocsOp, nil
}

// calibrateReps picks a rep count so each measurement runs ≥ minTime.
func calibrateReps(xs []*tensor.Tensor, run func(*tensor.Tensor) error, minTime time.Duration) (int, error) {
	watch := obs.NewStopwatch()
	for _, x := range xs {
		if err := run(x); err != nil {
			return 0, err
		}
	}
	per := watch.Elapsed()
	if per <= 0 {
		per = time.Nanosecond
	}
	reps := int(minTime/per) + 1
	const maxReps = 1 << 20
	if reps > maxReps {
		reps = maxReps
	}
	return reps, nil
}

// benchInferTarget measures one target on both paths and returns its row.
func benchInferTarget(tg inferTarget, fixedReps int) (inferEntry, error) {
	eng, err := fused.Compile(tg.net, tg.shape)
	if err != nil {
		return inferEntry{}, fmt.Errorf("%s: compile: %w", tg.name, err)
	}
	xs := inferInputs(tg, 1000+int64(tg.batch))
	if err := checkInferParity(tg, eng, xs); err != nil {
		return inferEntry{}, err
	}
	layered := func(x *tensor.Tensor) error {
		_, err := tg.net.Forward(x, false)
		return err
	}
	fusedRun := func(x *tensor.Tensor) error {
		_, err := eng.Forward(x)
		return err
	}
	reps := fixedReps
	if reps <= 0 {
		if reps, err = calibrateReps(xs, layered, 150*time.Millisecond); err != nil {
			return inferEntry{}, err
		}
	}
	e := inferEntry{Name: tg.name, Batch: tg.batch, Reps: reps}
	if e.LayeredNsOp, e.LayeredBOp, e.LayeredAllocsOp, err = timeInfer(reps, xs, layered); err != nil {
		return inferEntry{}, err
	}
	if e.FusedNsOp, e.FusedBOp, e.FusedAllocsOp, err = timeInfer(reps, xs, fusedRun); err != nil {
		return inferEntry{}, err
	}
	if e.FusedNsOp > 0 {
		e.Speedup = e.LayeredNsOp / e.FusedNsOp
	}
	return e, nil
}

// runInfer executes the suite and writes the JSON report to outPath.
func runInfer(outPath string, fixedReps int) error {
	layersT, e2e, err := inferTargets()
	if err != nil {
		return err
	}
	rep := inferReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Kernel: fused.Vectorized(),
	}
	logSum := 0.0
	nE2E := 0
	for _, tg := range append(append([]inferTarget(nil), layersT...), e2e...) {
		e, err := benchInferTarget(tg, fixedReps)
		if err != nil {
			return err
		}
		rep.Entries = append(rep.Entries, e)
		kind := "layer"
		if tg.name == "papernet" {
			kind = "e2e"
			logSum += math.Log(e.Speedup)
			nE2E++
		}
		fmt.Printf("%-14s %-5s batch=%-3d layered %10.0f ns/op %8.0f B/op %6.1f allocs/op | fused %10.0f ns/op %6.0f B/op %5.1f allocs/op | %.2fx\n",
			e.Name, kind, e.Batch,
			e.LayeredNsOp, e.LayeredBOp, e.LayeredAllocsOp,
			e.FusedNsOp, e.FusedBOp, e.FusedAllocsOp, e.Speedup)
	}
	if nE2E > 0 {
		rep.GeomeanSpeedup = math.Exp(logSum / float64(nE2E))
	}
	fmt.Printf("geomean end-to-end speedup: %.2fx (%s kernel)\n", rep.GeomeanSpeedup, rep.Kernel)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(outPath, buf, 0o644)
}
