package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/raster"
	"hotspot/internal/scan"
	"hotspot/internal/tensor"
)

// scanWorkload is an engineering-change loop on one die: a cold scan,
// then one seeded local edit per op, applied with Scanner.Rescan.
type scanWorkload struct {
	o     *options
	cfg   scan.Config
	net   *nn.Network
	die   geom.Clip
	edits []layout.Edit

	sc       *scan.Scanner
	cold0    *scan.Result // the working scanner's cold scan
	firstRef *scan.Result // cold scan of the die after the first edit
	last     *scan.Result // the latest Rescan's result
	k        int          // edits applied so far

	before []geom.Clip // traced: the die before each traced op
	editOf []int       // traced: the edit of each traced op
}

func (w *scanWorkload) generate() error {
	w.cfg = scan.DefaultConfig()
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		return err
	}
	w.net = net
	sz := w.o.size
	if w.die, err = layout.GenerateDie(layout.DieConfig{CellsX: sz.dieCells, CellsY: sz.dieCells, Seed: w.o.seed}); err != nil {
		return err
	}
	blockPx, err := w.cfg.Feature.BlockPx(w.cfg.WindowNM)
	if err != nil {
		return err
	}
	blockNM := blockPx * w.cfg.Feature.ResNM
	w.edits = genEdits(w.o.seed, sz.edits, w.die.Frame.W()/blockNM, w.die.Frame.H()/blockNM,
		blockNM, w.cfg.Feature.Blocks, sz.maxEditNM)
	return nil
}

// cold times one set-up: scan.New plus the cold Scan that fills the
// block-plane cache.
func (w *scanWorkload) cold(die geom.Clip) (time.Duration, *scan.Scanner, *scan.Result, error) {
	runtime.GC()
	start := time.Now()
	sc, err := scan.New(w.cfg, w.net, die)
	if err != nil {
		return 0, nil, nil, err
	}
	res, err := sc.Scan()
	return time.Since(start), sc, res, err
}

// setup times two cold set-ups: the reference for the first edit's gate
// and the working scanner. finish adds a third, the last edit's reference.
func (w *scanWorkload) setup() ([]time.Duration, error) {
	die1, _, err := layout.ApplyEdit(w.die, w.edits[0])
	if err != nil {
		return nil, err
	}
	d1, _, ref, err := w.cold(die1)
	if err != nil {
		return nil, err
	}
	d0, sc, res, err := w.cold(w.die)
	if err != nil {
		return nil, err
	}
	w.firstRef, w.sc, w.cold0 = ref, sc, res
	return []time.Duration{d1, d0}, nil
}

// gate applies the whole edit cycle once before timing; the first edit's
// heat map must equal a cold scan of the edited die bit for bit. The
// checksum covers the cold heat map and every heat map of the cycle.
func (w *scanWorkload) gate() (uint64, error) {
	h := fnv.New64a()
	hashProbs(h, w.cold0.Probs)
	for range w.edits {
		res, err := w.rescan()
		if err != nil {
			return 0, err
		}
		if w.k == 1 {
			if err := w.same("first edit", res, w.firstRef); err != nil {
				return 0, err
			}
		}
		hashProbs(h, res.Probs)
	}
	return h.Sum64(), nil
}

func (w *scanWorkload) rescan() (*scan.Result, error) {
	res, err := w.sc.Rescan(w.edits[w.k%len(w.edits)])
	w.k++
	if err == nil {
		w.last = res
	}
	return res, err
}

// same compares a rescanned heat map with a cold one bit for bit.
func (w *scanWorkload) same(what string, got, want *scan.Result) error {
	if len(got.Probs) != len(want.Probs) {
		return gateErr("%s: %d windows, cold scan %d", what, len(got.Probs), len(want.Probs))
	}
	for i, p := range got.Probs {
		bits := math.Float64bits(p)
		if i == 0 {
			bits = w.o.tamper(bits)
		}
		if bits != math.Float64bits(want.Probs[i]) {
			return gateErr("%s: window %d rescanned %v, cold scan %v", what, i, p, want.Probs[i])
		}
	}
	return nil
}

func hashProbs(h hash.Hash64, ps []float64) {
	for _, p := range ps {
		hashUint64(h, math.Float64bits(p))
	}
}

func hashUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func (w *scanWorkload) phase(ph *phase) error {
	ph.minOps = max(ph.minOps, len(w.edits)) // the traced counts need one whole cycle
	last := time.Now()
	for ph.more(last) {
		e := w.k % len(w.edits)
		if ph.traced {
			w.before, w.editOf = append(w.before, w.sc.Die()), append(w.editOf, e)
		}
		start := time.Now()
		res, err := w.rescan()
		rec := opRecord{start: start, end: time.Now(), due: last, issued: start, failed: err != nil}
		attrs := map[string]float64{"cycle": float64(len(w.edits)), "edit": float64(e)}
		if err == nil {
			st := res.Stats
			rec.items = st.Windows
			attrs["windows"] = float64(st.Windows)
			attrs["block_dcts"] = float64(st.BlockDCTs)
			attrs["dirty_blocks"] = float64(st.DirtyBlocks)
			attrs["block_gathers"] = float64(st.BlockGathers)
		}
		ph.add(rec, attrs)
		last = rec.end
	}
	return nil
}

// replay re-applies up to replayOps traced edits with layout.ApplyEdit
// and re-encodes their dirty blocks under each op's span, then runs the
// layer replays on windows and 16×16-block tiles of the edited die.
func (w *scanWorkload) replay(ph *phase) error {
	fcfg := w.cfg.Feature
	kit := &layerKit{rec: ph.rec, net: w.net, fcfg: fcfg}
	blockNM := w.sc.BlockNM()
	enc, err := fcfg.NewBlockEncoder(blockNM / fcfg.ResNM)
	if err != nil {
		return err
	}
	b := blockNM / fcfg.ResNM
	block, dst := make([]float64, b*b), make([]float64, fcfg.K)
	n := len(ph.ops)
	step := max(1, (n+w.o.size.replayOps-1)/w.o.size.replayOps)
	for op := 0; op < n; op += step {
		parent := ph.spans[op]
		var die geom.Clip
		var dirty geom.Rect
		if err := kit.rec.call(spanApplyEdit, op, parent, func() (err error) {
			die, dirty, err = layout.ApplyEdit(w.before[op], w.edits[w.editOf[op]])
			return err
		}); err != nil {
			return err
		}
		// The dirty blocks: every block the edit region overlaps.
		x0, y0 := dirty.X0/blockNM*blockNM, dirty.Y0/blockNM*blockNM
		x1 := (dirty.X1 + blockNM - 1) / blockNM * blockNM
		y1 := (dirty.Y1 + blockNM - 1) / blockNM * blockNM
		var im *raster.Image
		if err := kit.rec.call(spanRasterize+"/dirty", op, parent, func() (err error) {
			im, err = raster.Rasterize(geom.NewClip(geom.R(x0, y0, x1, y1), die.Rects), fcfg.ResNM)
			return err
		}); err != nil {
			return err
		}
		for py := 0; py+b <= im.H; py += b {
			for px := 0; px+b <= im.W; px += b {
				for y := 0; y < b; y++ {
					row := (py+y)*im.W + px
					copy(block[y*b:(y+1)*b], im.Pix[row:row+b])
				}
				if err := kit.rec.call(spanBlock, op, parent, func() error { return enc.EncodeInto(dst, block) }); err != nil {
					return err
				}
			}
		}
	}

	die := w.sc.Die()
	wnx, wny := w.sc.Windows()
	var ims []*raster.Image
	var xs []*tensor.Tensor
	for i := 0; i < w.o.size.layerInputs; i++ {
		j := i * (wnx * wny) / w.o.size.layerInputs
		win := w.sc.WindowRect(j%wnx, j/wnx)
		im, x, err := kit.clip(geom.NewClip(win, die.Rects), win, -1, 0)
		if err != nil {
			return err
		}
		ims, xs = append(ims, im), append(xs, x)
	}
	nbx, nby := w.sc.Blocks()
	const tile = 16 // scan.DefaultConfig's TileBlocks
	var tiles []geom.Clip
	for ty := 0; (ty+1)*tile <= nby; ty++ {
		for tx := 0; (tx+1)*tile <= nbx; tx++ {
			r := geom.R(tx*tile*blockNM, ty*tile*blockNM, (tx+1)*tile*blockNM, (ty+1)*tile*blockNM)
			tiles = append(tiles, geom.NewClip(r.Translate(die.Frame.X0, die.Frame.Y0), die.Rects))
		}
	}
	return kit.all(ims[:min(len(ims), 8)], xs, tiles)
}

// finish takes the third set-up sample, a cold scan of the finally edited
// die, and requires the last Rescan's heat map to equal it bit for bit.
func (w *scanWorkload) finish() ([]time.Duration, error) {
	d, _, ref, err := w.cold(w.sc.Die())
	if err != nil {
		return nil, err
	}
	if err := w.same("last edit", w.last, ref); err != nil {
		return nil, err
	}
	return []time.Duration{d}, nil
}

func (w *scanWorkload) close() {}
