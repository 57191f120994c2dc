package main

import (
	"hash/fnv"
	"runtime"
	"time"

	"hotspot/internal/active"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// trainWorkload is repeated fine-tuning: each op is one train.MGD call of
// a few iterations on the Table-1 net over a fixed litho-labeled set,
// starting from the same warm-start weights every time.
type trainWorkload struct {
	o     *options
	clips []geom.Clip
	hot   []bool

	set  []train.Sample
	net  *nn.Network
	w0   [][]float64 // the warm-start weights every op starts from
	refs []uint64    // weight checksum after each seed of the cycle
	k    int         // ops run so far, gate included
}

func (w *trainWorkload) generate() error {
	var err error
	w.clips, w.hot, err = labeledSet(w.o.seed, w.o.size.labeled)
	return err
}

// setup times fresh set-ups: feature extraction of the labeled set plus
// network initialization. The last one is trained.
func (w *trainWorkload) setup() ([]time.Duration, error) {
	var ds []time.Duration
	for rep := 0; rep < heavySetupReps; rep++ {
		runtime.GC()
		start := time.Now()
		xs, err := feature.ExtractTensors(w.clips, coreRect(), feature.DefaultTensorConfig(), 0)
		if err != nil {
			return nil, err
		}
		net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
		if err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start))
		w.set = make([]train.Sample, len(xs))
		for i, x := range xs {
			w.set[i] = train.Sample{X: x, Hotspot: w.hot[i]}
		}
		w.net = net
	}
	for _, p := range w.net.Params() {
		w.w0 = append(w.w0, append([]float64(nil), p.W.Data()...))
	}
	return ds, nil
}

// heavySetupReps is the set-up count of the workloads whose one set-up
// takes a large fraction of a second.
const heavySetupReps = 3

// tune runs one fine-tune from the warm-start weights with the cycle's
// slot-th seed and returns the resulting weight checksum.
func (w *trainWorkload) tune(workers, slot int) (uint64, error) {
	for i, p := range w.net.Params() {
		copy(p.W.Data(), w.w0[i])
	}
	_, err := train.MGD(w.net, w.set, nil, train.MGDConfig{
		LearningRate:   0.01,
		DecayFactor:    0.5,
		DecayStep:      200,
		BatchSize:      w.o.size.batch,
		MaxIters:       w.o.size.iters,
		Eps:            0.1,
		BalanceClasses: true,
		Seed:           w.o.seed + int64(slot),
		Workers:        workers,
	})
	return active.WeightChecksum(w.net), err
}

// gate runs every seed of the cycle once with the default workers, then
// the first again on one worker: the weights must match bit for bit.
func (w *trainWorkload) gate() (uint64, error) {
	h := fnv.New64a()
	w.refs = make([]uint64, w.o.size.seedCycle)
	for slot := range w.refs {
		sum, err := w.tune(0, slot)
		if err != nil {
			return 0, err
		}
		w.refs[slot] = sum
		hashUint64(h, sum)
	}
	one, err := w.tune(1, 0)
	if err != nil {
		return 0, err
	}
	if w.o.tamper(one) != w.refs[0] {
		return 0, gateErr("1-worker weight checksum %016x, default workers %016x", one, w.refs[0])
	}
	return h.Sum64(), nil
}

func (w *trainWorkload) phase(ph *phase) error {
	samples := float64(w.o.size.batch * w.o.size.iters)
	last := time.Now()
	for ph.more(last) {
		slot := w.k % len(w.refs)
		start := time.Now()
		sum, err := w.tune(0, slot)
		rec := opRecord{start: start, end: time.Now(), due: last, issued: start, items: int(samples), failed: err != nil}
		if err == nil && sum != w.refs[slot] {
			rec.failed, rec.mismatch = true, true
		}
		w.k++
		ph.add(rec, map[string]float64{"samples": samples})
		last = rec.end
	}
	return nil
}

// replay runs the layer replays on the labeled clips.
func (w *trainWorkload) replay(ph *phase) error {
	kit := &layerKit{rec: ph.rec, net: w.net, fcfg: feature.DefaultTensorConfig()}
	var ims []*raster.Image
	var xs []*tensor.Tensor
	var tiles []geom.Clip
	for _, c := range w.clips[:min(len(w.clips), w.o.size.layerInputs)] {
		im, x, err := kit.clip(c, coreRect(), -1, 0)
		if err != nil {
			return err
		}
		ims, xs, tiles = append(ims, im), append(xs, x), append(tiles, c)
	}
	return kit.all(ims[:min(len(ims), 8)], xs, tiles[:min(len(tiles), 16)])
}

func (w *trainWorkload) finish() ([]time.Duration, error) { return nil, nil }

func (w *trainWorkload) close() {}
