package train

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// dropoutNet is a toy paper net WITH dropout active, so the parallel/serial
// parity tests exercise the per-sample mask reseeding, not just the
// deterministic layers.
func dropoutNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 2, SpatialSize: 4, Conv1Maps: 4, Conv2Maps: 4,
		FC1: 8, DropoutRate: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// imbalancedToy builds a set with ~25% positives so balanced sampling has
// distinct classes to draw from.
func imbalancedToy(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := tensor.New(2, 4, 4)
		hot := i%4 == 0
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64() * 0.3
		}
		if hot {
			for j := 0; j < 16; j++ {
				x.Data()[j] += 1
			}
		}
		out[i] = Sample{X: x, Hotspot: hot}
	}
	return out
}

// TestMGDParallelMatchesSerial is the headline determinism regression: four
// gradient workers must produce weights identical to one worker for the
// same seed, in both sampling modes. Equality is exact — the index-ordered
// reduction reproduces the serial accumulation bit for bit.
func TestMGDParallelMatchesSerial(t *testing.T) {
	for _, balance := range []bool{false, true} {
		name := "uniform"
		if balance {
			name = "balanced"
		}
		t.Run(name, func(t *testing.T) {
			samples := imbalancedToy(80, 17)
			trainSet, valSet, err := Split(samples, 0.25, 5)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickCfg()
			cfg.MaxIters = 40
			cfg.ValEvery = 10
			cfg.BalanceClasses = balance

			serial := dropoutNet(t, 23)
			cfgS := cfg
			cfgS.Workers = 1
			histS, err := MGD(serial, trainSet, valSet, cfgS)
			if err != nil {
				t.Fatal(err)
			}

			par := dropoutNet(t, 23)
			cfgP := cfg
			cfgP.Workers = 4
			histP, err := MGD(par, trainSet, valSet, cfgP)
			if err != nil {
				t.Fatal(err)
			}

			sp, pp := serial.Params(), par.Params()
			for i := range sp {
				sd, pd := sp[i].W.Data(), pp[i].W.Data()
				for j := range sd {
					if diff := math.Abs(sd[j] - pd[j]); diff > 1e-12 {
						t.Fatalf("%s: param %s[%d] diverged by %g (serial %v, parallel %v)",
							name, sp[i].Name, j, diff, sd[j], pd[j])
					}
				}
			}
			if len(histS) != len(histP) {
				t.Fatalf("history lengths differ: %d vs %d", len(histS), len(histP))
			}
			for i := range histS {
				if histS[i].ValAccuracy != histP[i].ValAccuracy ||
					histS[i].TrainLoss != histP[i].TrainLoss {
					t.Fatalf("checkpoint %d differs: serial %+v, parallel %+v",
						i, histS[i], histP[i])
				}
			}
		})
	}
}

// TestMGDWorkerCountInvariance spot-checks a few more worker counts,
// including more workers than batch positions.
func TestMGDWorkerCountInvariance(t *testing.T) {
	samples := imbalancedToy(40, 19)
	trainSet, _, err := Split(samples, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.MaxIters = 15
	cfg.ValEvery = 0
	cfg.BatchSize = 4

	ref := dropoutNet(t, 29)
	cfgR := cfg
	cfgR.Workers = 1
	if _, err := MGD(ref, trainSet, nil, cfgR); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		net := dropoutNet(t, 29)
		c := cfg
		c.Workers = workers
		if _, err := MGD(net, trainSet, nil, c); err != nil {
			t.Fatal(err)
		}
		rp, np := ref.Params(), net.Params()
		for i := range rp {
			rd, nd := rp[i].W.Data(), np[i].W.Data()
			for j := range rd {
				if rd[j] != nd[j] {
					t.Fatalf("workers=%d: param %s[%d] differs", workers, rp[i].Name, j)
				}
			}
		}
	}
}

// TestMGDLoneLastWave trains a batch of 7 at 3 workers. Each wave's
// position 0 runs on the network itself and adds into the master
// gradients; the last wave is position 6 alone, so it folds nothing. The
// weights must equal one worker's bit for bit.
func TestMGDLoneLastWave(t *testing.T) {
	samples := imbalancedToy(40, 31)
	cfg := quickCfg()
	cfg.MaxIters, cfg.ValEvery, cfg.BatchSize = 12, 0, 7
	var want []float64
	for _, workers := range []int{1, 3} {
		net := dropoutNet(t, 37)
		c := cfg
		c.Workers = workers
		if _, err := MGD(net, samples, nil, c); err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, p := range net.Params() {
			got = append(got, p.W.Data()...)
		}
		if want == nil {
			want = got
			continue
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%d workers: weight %d = %v, one worker %v", workers, i, v, want[i])
			}
		}
	}
}

// TestEvaluatorMatchesEvalSet: parallel inference must report the exact
// metrics of the serial path, and stay correct after the wrapped network's
// weights change in place (the engines alias them).
func TestEvaluatorMatchesEvalSet(t *testing.T) {
	samples := imbalancedToy(60, 31)
	net := dropoutNet(t, 37)
	ev, err := NewEvaluator(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for _, shift := range []float64{0, 0.1} {
			want, err := layeredEvalSet(net, samples, shift)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.EvalSet(samples, shift)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("%s shift=%v: evaluator %+v, serial %+v", stage, shift, got, want)
			}
		}
	}
	check("initial")
	// Perturb weights through the wrapped net; the engines must follow.
	for _, p := range net.Params() {
		for j := range p.W.Data() {
			p.W.Data()[j] += 0.05
		}
	}
	check("after weight change")

	probs, err := ev.PredictProbs([]*tensor.Tensor{samples[0].X, samples[1].X, samples[2].X})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want, err := PredictProb(net, samples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		if probs[i] != want {
			t.Fatalf("PredictProbs[%d] = %v, serial %v", i, probs[i], want)
		}
	}
}

// TestMGDGenericKernelParity trains on every tile body the host has besides
// the one it runs (the pure-Go body, and the AVX2 one on an AVX-512 host),
// which it would otherwise never run, with one and with two workers: each
// must reproduce the host kernels' trained weights bit for bit. The net's
// odd geometry (3- and 5-channel convs over 5×5 maps, so neither the
// channel counts nor oh·ow are multiples of 4) takes every aliased and
// padded tile path, including the second conv's input gradient; a second
// geometry with 16- and 20-channel convs runs the weight gradient's
// 16-lane dot-tile steps.
func TestMGDGenericKernelParity(t *testing.T) {
	if len(tensor.Kernels()) == 1 {
		t.Skip("every MGD test already runs the only tile body on this host")
	}
	rng := rand.New(rand.NewSource(41))
	samples := make([]Sample, 24)
	for i := range samples {
		x := tensor.New(2, 5, 5)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		samples[i] = Sample{X: x, Hotspot: i%3 == 0}
	}
	train := func(workers, maps1, maps2 int) []float64 {
		r := rand.New(rand.NewSource(43))
		conv1, err := nn.NewConv2D("c1", 2, maps1, 3, 1, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		conv2, err := nn.NewConv2D("c2", maps1, maps2, 3, 1, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		fc1, err := nn.NewDense("f1", maps2*2*2, 6, r)
		if err != nil {
			t.Fatal(err)
		}
		drop, err := nn.NewDropout("d", 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		fc2, err := nn.NewDense("f2", 6, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		net := nn.NewNetwork(conv1, nn.NewReLU("r1"), conv2, nn.NewReLU("r2"), nn.NewMaxPool2("p"),
			fc1, nn.NewReLU("r3"), drop, fc2)
		cfg := quickCfg()
		cfg.MaxIters, cfg.ValEvery, cfg.BatchSize, cfg.Workers = 12, 0, 5, workers
		if _, err := MGD(net, samples, nil, cfg); err != nil {
			t.Fatal(err)
		}
		var w []float64
		for _, p := range net.Params() {
			w = append(w, p.W.Data()...)
		}
		return w
	}
	// Conv output channels set the weight gradient's dot-tile lanes: 3 and
	// 5 run 4- and 8-lane steps, 16 and 20 the 16-lane step and 16 + 4.
	for _, maps := range [][2]int{{3, 5}, {16, 20}} {
		want := train(1, maps[0], maps[1])
		for _, name := range tensor.Kernels() {
			if name == tensor.TileKernel() {
				continue
			}
			tensor.WithKernel(name, func() {
				for _, workers := range []int{1, 2} {
					for i, v := range train(workers, maps[0], maps[1]) {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							t.Fatalf("%s kernels, %d workers, maps %v: weight %d = %v, host kernels %v",
								name, workers, maps, i, v, want[i])
						}
					}
				}
			})
		}
	}
}

// TestMGDRepeatedCallsMatchFresh runs MGD on one network with 2, 3, 2 and
// then 1 workers, each from the same start weights, so every run starts
// from the layer buffers and gradients the run before it left behind.
// Every run must match, bit for bit, the same run on a fresh clone of the
// start weights. The batch of 8 leaves a short last wave at 3 workers, and
// validation runs on the shadows and restores the best snapshot into the
// weights they alias.
func TestMGDRepeatedCallsMatchFresh(t *testing.T) {
	samples := imbalancedToy(60, 47)
	trainSet, valSet, err := Split(samples, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	start := dropoutNet(t, 53)
	net, err := start.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for run, workers := range []int{2, 3, 2, 1} {
		cfg := quickCfg()
		cfg.MaxIters, cfg.ValEvery, cfg.Workers = 30, 10, workers
		cfg.Seed = int64(61 + run)
		if err := copyWeights(net, start); err != nil {
			t.Fatal(err)
		}
		hist, err := MGD(net, trainSet, valSet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := start.Clone()
		if err != nil {
			t.Fatal(err)
		}
		freshHist, err := MGD(fresh, trainSet, valSet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wp, fp := net.Params(), fresh.Params()
		for i := range wp {
			for j, v := range wp[i].W.Data() {
				if math.Float64bits(v) != math.Float64bits(fp[i].W.Data()[j]) {
					t.Fatalf("run %d (%d workers): %s[%d] = %v repeated, %v fresh", run, workers, wp[i].Name, j, v, fp[i].W.Data()[j])
				}
			}
		}
		for i := range hist {
			h, f := hist[i], freshHist[i]
			h.Elapsed, f.Elapsed = 0, 0
			if h != f {
				t.Fatalf("run %d (%d workers): checkpoint %d repeated %+v, fresh %+v", run, workers, i, h, f)
			}
		}
	}
}
